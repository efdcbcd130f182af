package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mvml/internal/signs"
	"mvml/internal/stats"
)

// LoadConfig parameterises an open-loop load run: requests fire on a fixed
// schedule regardless of how fast responses come back, so queueing delay is
// measured honestly (closed-loop generators hide it by self-throttling).
type LoadConfig struct {
	// Rate is the request arrival rate in requests per second.
	Rate float64
	// Duration is how long to generate load.
	Duration time.Duration
	// Timeout bounds each HTTP request.
	Timeout time.Duration
	// Seed varies the classes requested.
	Seed uint64
	// ClientID, when non-empty, is sent as the X-Client-ID header on every
	// request — the identity the gateway's per-client retry budgets key on.
	ClientID string
}

// DefaultLoadConfig is a moderate smoke-load.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{Rate: 100, Duration: 3 * time.Second, Timeout: 2 * time.Second, Seed: 38}
}

// LoadReport summarises one load run.
type LoadReport struct {
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
	// StatusCounts breaks every non-200 HTTP response down by status code,
	// so gateway shed (429) and shard errors (503, ...) stay distinguishable
	// in one report instead of lumping into the aggregate counters above.
	StatusCounts map[int]int `json:"status_counts,omitempty"`
}

// String renders the report as the one-paragraph summary the CLI prints.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d: %d ok, %d degraded, %d rejected (429), %d failed (5xx), %d transport errors\n",
		r.Sent, r.OK, r.Degraded, r.Rejected, r.Failed, r.Errors)
	if len(r.StatusCounts) > 0 {
		codes := make([]int, 0, len(r.StatusCounts))
		for c := range r.StatusCounts {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		parts := make([]string, 0, len(codes))
		for _, c := range codes {
			parts = append(parts, fmt.Sprintf("%d×%d", c, r.StatusCounts[c]))
		}
		fmt.Fprintf(&b, "non-200 by status: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "elapsed %v, throughput %.1f req/s\n", r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&b, "latency p50 %v  p90 %v  p99 %v  max %v",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	return b.String()
}

// RunLoad drives baseURL's /v1/classify endpoint open-loop per cfg and
// reports outcome counts, throughput and latency percentiles (computed over
// answered requests). The schedule is deficit-corrected: each wakeup fires
// however many requests the elapsed wall clock is owed, so a busy machine
// that misses ticker ticks still offers the configured rate instead of
// silently under-driving the target.
func RunLoad(baseURL string, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: load rate %v and duration %v must be positive", cfg.Rate, cfg.Duration)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	client := &http.Client{Timeout: cfg.Timeout}
	url := strings.TrimRight(baseURL, "/") + "/v1/classify"

	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		report    LoadReport
		latencies []time.Duration
	)
	report.StatusCounts = map[int]int{}
	fire := func(n int) {
		body, _ := json.Marshal(ClassifyRequest{
			Class: ptr(int((cfg.Seed + uint64(n)) % signs.NumClasses)),
			Seed:  cfg.Seed + uint64(n),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
				if cfg.ClientID != "" {
					req.Header.Set("X-Client-ID", cfg.ClientID)
				}
			}
			var resp *http.Response
			if err == nil {
				resp, err = client.Do(req)
			}
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			report.Sent++
			if err != nil {
				report.Errors++
				return
			}
			var cr ClassifyResponse
			decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&cr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
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

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval < time.Millisecond {
		interval = time.Millisecond // wake at most 1kHz; deficit catch-up covers the rest
	}
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(cfg.Duration)

	total := int(cfg.Rate * cfg.Duration.Seconds())
	n := 0
loop:
	for n < total {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			owed := int(cfg.Rate * time.Since(start).Seconds())
			if owed > total {
				owed = total
			}
			for ; n < owed; n++ {
				fire(n)
			}
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		report.P50 = stats.NearestRank(latencies, 0.50)
		report.P90 = stats.NearestRank(latencies, 0.90)
		report.P99 = stats.NearestRank(latencies, 0.99)
		report.Max = latencies[len(latencies)-1]
	}
	if secs := report.Elapsed.Seconds(); secs > 0 {
		report.Throughput = float64(report.OK+report.Degraded) / secs
	}
	if len(report.StatusCounts) == 0 {
		report.StatusCounts = nil
	}
	return &report, nil
}

func ptr[T any](v T) *T { return &v }
