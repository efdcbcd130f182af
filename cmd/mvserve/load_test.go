package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mvml/internal/serve"
)

// newTestShard serves one shard of the fast profile over HTTP for the test.
func newTestShard(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	fl := buildTestFleet(t, "-fast-models", "-batch", "4", "-timeout", "2s")
	ts := httptest.NewServer(fl.handler)
	t.Cleanup(ts.Close)
	return fl.shards[0], ts
}

func TestRunLoadAgainstHealthyServer(t *testing.T) {
	_, ts := newTestShard(t)
	rep, err := runLoad(ts.URL, loadConfig{
		Rate:     200,
		Duration: 400 * time.Millisecond,
		Timeout:  5 * time.Second,
		Seed:     38,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("open-loop generator sent nothing")
	}
	if rep.Errors != 0 || rep.Failed != 0 {
		t.Fatalf("healthy run saw failures: %+v", rep)
	}
	if rep.OK+rep.Degraded != rep.Sent-rep.Rejected {
		t.Fatalf("outcome counts do not add up: %+v", rep)
	}
	if rep.OK > 0 && (rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99) {
		t.Fatalf("latency percentiles not monotone: %+v", rep)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %v", rep.Throughput)
	}
	out := rep.String()
	for _, want := range []string{"ok", "degraded", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunLoadSeedAboveInt63: the request class is derived from the seed in
// uint64, so a seed at or above 2^63 still asks for a class in range and
// every request is answered 200.
func TestRunLoadSeedAboveInt63(t *testing.T) {
	_, ts := newTestShard(t)
	rep, err := runLoad(ts.URL, loadConfig{
		Rate:     50,
		Duration: 200 * time.Millisecond,
		Timeout:  5 * time.Second,
		Seed:     math.MaxUint64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || len(rep.StatusCounts) != 0 || rep.Errors != 0 {
		t.Fatalf("seed 2^64-1: %+v, want every request answered 200", rep)
	}
}

// TestRunLoadSurvivesRejuvenation is the loadgen-side statement of the
// acceptance criterion: a forced compromise plus rejuvenation in the middle
// of an open-loop run produces zero 5xx responses.
func TestRunLoadSurvivesRejuvenation(t *testing.T) {
	s, ts := newTestShard(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(100 * time.Millisecond)
		if err := s.Compromise(0); err != nil {
			t.Error(err)
		}
		time.Sleep(100 * time.Millisecond)
		if err := s.Rejuvenate(0, serve.RejuvManual); err != nil {
			t.Error(err)
		}
	}()
	rep, err := runLoad(ts.URL, loadConfig{
		Rate:     150,
		Duration: 500 * time.Millisecond,
		Timeout:  5 * time.Second,
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Errors != 0 {
		t.Fatalf("rejuvenation under load failed requests: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("no successful answers at all: %+v", rep)
	}
}

// TestRunLoadValidatesConfig: a run owed no request is refused before it
// sends anything, whether its rate or duration is not positive or their
// product is below one request.
func TestRunLoadValidatesConfig(t *testing.T) {
	for _, c := range []loadConfig{
		{Rate: 0, Duration: time.Second},
		{Rate: 10, Duration: 0},
		{Rate: 0.5, Duration: time.Second},
		{Rate: -10, Duration: -time.Second},
		{Rate: math.NaN(), Duration: time.Second},
		{Rate: math.Inf(1), Duration: time.Second},
	} {
		if _, err := runLoad("http://127.0.0.1:0", c); err == nil {
			t.Errorf("rate %v over %v accepted", c.Rate, c.Duration)
		}
	}
}

// TestRunLoadStatusCounts pins the per-status-code failure breakdown: a
// server cycling 200/429/503 must produce a report whose StatusCounts
// reconcile exactly with the aggregate Rejected and Failed counters, keeping
// gateway shed (429) distinguishable from shard errors (5xx).
func TestRunLoadStatusCounts(t *testing.T) {
	var mu sync.Mutex
	n := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := n
		n++
		mu.Unlock()
		switch i % 3 {
		case 0:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"class":1,"agreeing":3,"proposals":3}`)
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()

	rep, err := runLoad(ts.URL, loadConfig{
		Rate: 100, Duration: 300 * time.Millisecond, Timeout: 2 * time.Second, Seed: 1,
		ClientID: "breakdown",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("transport errors against a local stub: %+v", rep)
	}
	if rep.StatusCounts[http.StatusTooManyRequests] != rep.Rejected {
		t.Fatalf("429 count %d != rejected %d", rep.StatusCounts[http.StatusTooManyRequests], rep.Rejected)
	}
	if rep.StatusCounts[http.StatusServiceUnavailable] != rep.Failed {
		t.Fatalf("503 count %d != failed %d", rep.StatusCounts[http.StatusServiceUnavailable], rep.Failed)
	}
	if _, ok := rep.StatusCounts[http.StatusOK]; ok {
		t.Fatal("200s must not appear in the non-200 breakdown")
	}
	out := rep.String()
	if !strings.Contains(out, "non-200 by status") {
		t.Fatalf("report does not render the breakdown:\n%s", out)
	}
}

// TestRunLoadCleanReportOmitsBreakdown keeps the all-200 report identical to
// the pre-breakdown format (StatusCounts stays nil until a non-200 arrives).
func TestRunLoadCleanReportOmitsBreakdown(t *testing.T) {
	_, ts := newTestShard(t)
	rep, err := runLoad(ts.URL, loadConfig{
		Rate: 50, Duration: 200 * time.Millisecond, Timeout: 2 * time.Second, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 && rep.Rejected == 0 && rep.Errors == 0 && rep.StatusCounts != nil {
		t.Fatalf("clean run still carries StatusCounts: %+v", rep.StatusCounts)
	}
	if strings.Contains(rep.String(), "non-200") {
		t.Fatalf("clean report renders an empty breakdown:\n%s", rep)
	}
}
