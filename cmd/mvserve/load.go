package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"mvml/internal/cli"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/stats"
)

// loadConfig parameterises an open-loop load run: requests fire on a fixed
// schedule regardless of how fast responses come back, so queueing delay is
// measured honestly (closed-loop generators hide it by self-throttling).
type loadConfig struct {
	Rate     float64       // request arrival rate in requests per second
	Duration time.Duration // how long to generate load
	Timeout  time.Duration // bounds each HTTP request
	Seed     uint64        // varies the classes requested
	ClientID string        // sent as X-Client-ID: what the gateway's retry budgets key on
}

// requests is how many requests the run owes, Rate × Duration: a usage error
// unless at least one (a run that sends nothing proves nothing) and countable.
func (c loadConfig) requests() (int, error) {
	n := c.Rate * c.Duration.Seconds()
	if !(c.Rate > 0 && c.Duration > 0 && n >= 1 && n < 1<<31) {
		return 0, cli.Usagef("-rate %v over -duration %v owes %v requests: need at least one", c.Rate, c.Duration, n)
	}
	return int(n), nil
}

// loadReport summarises one load run.
type loadReport struct {
	Sent       int           `json:"sent"`
	OK         int           `json:"ok"`       // 200, full-majority answers
	Degraded   int           `json:"degraded"` // 200, degraded answers
	Rejected   int           `json:"rejected"` // 429 backpressure
	Failed     int           `json:"failed"`   // 5xx
	Errors     int           `json:"errors"`   // transport-level failures
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_rps"` // answered (OK+Degraded) per second
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	Max        time.Duration `json:"max_ns"`
	// StatusCounts breaks every non-200 response down by status code, so
	// gateway shed (429) and shard errors (503, ...) stay distinguishable.
	StatusCounts map[int]int `json:"status_counts,omitempty"`
}

// String renders the report as the one-paragraph summary the CLI prints.
func (r *loadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d: %d ok, %d degraded, %d rejected (429), %d failed (5xx), %d transport errors\n",
		r.Sent, r.OK, r.Degraded, r.Rejected, r.Failed, r.Errors)
	if len(r.StatusCounts) > 0 {
		var parts []string
		for c := 100; c < 1000; c++ { // every status code, in order
			if n := r.StatusCounts[c]; n > 0 {
				parts = append(parts, fmt.Sprintf("%d×%d", c, n))
			}
		}
		fmt.Fprintf(&b, "non-200 by status: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "elapsed %v, throughput %.1f req/s\n", r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&b, "latency p50 %v  p90 %v  p99 %v  max %v",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	return b.String()
}

// runLoad drives baseURL's /v1/classify endpoint open-loop per cfg and
// reports outcome counts, throughput and latency percentiles over answered
// requests. Each wakeup fires however many requests the wall clock is owed,
// so a busy machine that misses ticks still offers the configured rate.
func runLoad(baseURL string, cfg loadConfig) (*loadReport, error) {
	total, err := cfg.requests()
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: cfg.Timeout}
	url := strings.TrimRight(baseURL, "/") + "/v1/classify"
	if _, err := http.NewRequest(http.MethodPost, url, nil); err != nil {
		return nil, err
	}

	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		report    loadReport
		latencies []time.Duration
	)
	fire := func(n int) {
		class := int((cfg.Seed + uint64(n)) % signs.NumClasses)
		body, _ := json.Marshal(serve.ClassifyRequest{Class: &class, Seed: cfg.Seed + uint64(n)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body)) // url checked above
			req.Header.Set("Content-Type", "application/json")
			if cfg.ClientID != "" {
				req.Header.Set("X-Client-ID", cfg.ClientID)
			}
			resp, err := client.Do(req)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			report.Sent++
			if err != nil {
				report.Errors++
				return
			}
			var cr serve.ClassifyResponse
			decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&cr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				if report.StatusCounts == nil {
					report.StatusCounts = map[int]int{}
				}
				report.StatusCounts[resp.StatusCode]++
			}
			switch {
			case resp.StatusCode == http.StatusOK && decErr == nil:
				if cr.Degraded {
					report.Degraded++
				} else {
					report.OK++
				}
				latencies = append(latencies, lat)
			case resp.StatusCode == http.StatusTooManyRequests:
				report.Rejected++
			case resp.StatusCode >= 500:
				report.Failed++
			default:
				report.Errors++
			}
		}()
	}

	// Wake at most at 1 kHz; the deficit catch-up covers the rest.
	interval := max(time.Duration(float64(time.Second)/cfg.Rate), time.Millisecond)
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(cfg.Duration)

	n := 0
loop:
	for n < total {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			owed := min(int(cfg.Rate*time.Since(start).Seconds()), total)
			for ; n < owed; n++ {
				fire(n)
			}
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)

	slices.Sort(latencies)
	report.P50, report.P90 = stats.NearestRank(latencies, 0.50), stats.NearestRank(latencies, 0.90)
	report.P99, report.Max = stats.NearestRank(latencies, 0.99), stats.NearestRank(latencies, 1)
	if secs := report.Elapsed.Seconds(); secs > 0 {
		report.Throughput = float64(report.OK+report.Degraded) / secs
	}
	return &report, nil
}
