package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvml/internal/obs"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func ptr[T any](v T) *T { return &v }

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPClassifyByClass(t *testing.T) {
	_, ts := newHTTPServer(t, testConfig())
	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Class: ptr(7), Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cr := decode[ClassifyResponse](t, resp)
	if cr.Proposals != 3 || cr.Degraded {
		t.Fatalf("healthy identical ensemble response: %+v", cr)
	}
	if cr.LatencyMS <= 0 {
		t.Fatalf("latency %v not reported", cr.LatencyMS)
	}
	// Same class+seed is deterministic across calls.
	again := decode[ClassifyResponse](t, postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Class: ptr(7), Seed: 1}))
	if again.Class != cr.Class {
		t.Fatalf("same request classified differently: %d vs %d", again.Class, cr.Class)
	}
}

func TestHTTPClassifyByImage(t *testing.T) {
	_, ts := newHTTPServer(t, testConfig())
	img := testImage(3)
	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Image: img.Data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cr := decode[ClassifyResponse](t, resp)
	if cr.Proposals != 3 {
		t.Fatalf("response: %+v", cr)
	}
}

func TestHTTPClassifyBadRequests(t *testing.T) {
	_, ts := newHTTPServer(t, testConfig())
	cases := []any{
		ClassifyRequest{},                                        // neither image nor class
		ClassifyRequest{Image: make([]float32, 7)},               // wrong size
		ClassifyRequest{Class: ptr(-1)},                          // class out of range
		ClassifyRequest{Class: ptr(99)},                          // class out of range
		ClassifyRequest{Image: testImage(0).Data, Class: ptr(1)}, // both
	}
	for i, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/classify", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		er := decode[errorResponse](t, resp)
		if er.Error == "" {
			t.Errorf("case %d: empty error body", i)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPQueueFull429 proves backpressure is explicit at the HTTP surface:
// a full admission queue answers 429 with a Retry-After hint, immediately.
func TestHTTPQueueFull429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	cfg.batchGate = make(chan struct{}, 4)
	s, ts := newHTTPServer(t, cfg)

	// Occupy the queue's only slot; the gated batcher leaves it in place.
	first := make(chan *http.Response, 1)
	go func() {
		raw, _ := json.Marshal(ClassifyRequest{Class: ptr(0)})
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(raw))
		if err == nil {
			first <- resp
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.depth.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Class: ptr(1)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()

	cfg.batchGate <- struct{}{}
	if resp := <-first; resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request finished with %d after gate opened", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newHTTPServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	hr := decode[healthResponse](t, resp)
	if hr.Status != "ok" || len(hr.Versions) != 3 {
		t.Fatalf("health: %+v", hr)
	}
	for _, v := range hr.Versions {
		if v.State != "serving" {
			t.Fatalf("version %s state %s at rest", v.Name, v.State)
		}
	}
}

func TestHTTPAdminRejuvenateAndCompromise(t *testing.T) {
	s, ts := newHTTPServer(t, testConfig())
	if resp := postJSON(t, ts.URL+"/admin/compromise", adminRequest{Version: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compromise status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/admin/rejuvenate", adminRequest{Version: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rejuvenate status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/admin/rejuvenate", adminRequest{Version: 9}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range rejuvenate status %d, want 400", resp.StatusCode)
	}
	// The ensemble still answers in full agreement after the round trip.
	res, err := s.Classify(testImage(1))
	if err != nil || res.Agreeing != 3 {
		t.Fatalf("post-admin classify: res=%+v err=%v", res, err)
	}
}

// TestHTTPAdminRejuvenateKinds: the kind of an /admin/rejuvenate body becomes
// a metric label, so only the trigger kinds are accepted ("" means manual);
// any other kind, or a body over the admin bound, is refused before a series
// exists.
func TestHTTPAdminRejuvenateKinds(t *testing.T) {
	rt := obs.NewRuntime(0)
	s := newTestServer(t, testConfig(), rt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"version":0}`, http.StatusOK},
		{`{"version":0,"kind":"manual"}`, http.StatusOK},
		{`{"version":0,"kind":"proactive"}`, http.StatusOK},
		{`{"version":0,"kind":"reactive"}`, http.StatusOK},
		{`{"version":0,"kind":"anything"}`, http.StatusBadRequest},
		{`{"version":0,"kind":"Manual"}`, http.StatusBadRequest},
		{`{"version":0,"kind":"manual","pad":"` + strings.Repeat("x", 8<<10) + `"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/admin/rejuvenate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%.40s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	var b strings.Builder
	if err := rt.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "mvserve_rejuvenations_total{") &&
			!strings.Contains(line, `kind="manual"`) && !strings.Contains(line, `kind="proactive"`) &&
			!strings.Contains(line, `kind="reactive"`) {
			t.Errorf("series beyond the trigger kinds: %.80s", line)
		}
	}
	if got := rt.Metrics().Counter("mvserve_rejuvenations_total", "kind", RejuvManual).Value(); got != 2 {
		t.Errorf("manual rejuvenations = %d, want 2 (empty kind and manual)", got)
	}
}

// TestSlowLorisClosedByReadHeaderTimeout: against a real listener, a client
// that sends a partial header and never finishes it is disconnected within
// ReadHeaderTimeout (plus slack), while a well-formed classify request sent
// meanwhile is answered.
func TestSlowLorisClosedByReadHeaderTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the server's ReadHeaderTimeout")
	}
	s := newTestServer(t, testConfig(), nil)
	srv := NewHTTPServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	// The server arms the header deadline after it accepts, so the
	// connection cannot close before dialled + ReadHeaderTimeout.
	dialled := time.Now()
	loris, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := loris.Write([]byte("POST /v1/classify HTTP/1.1\r\nHost: mvserve\r\nContent-Type: application/json\r\n")); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()

	resp := postJSON(t, "http://"+ln.Addr().String()+"/v1/classify", ClassifyRequest{Class: ptr(7), Seed: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed request beside a slow loris: status %d, want 200", resp.StatusCode)
	}

	limit := srv.ReadHeaderTimeout + 2*time.Second
	if err := loris.SetReadDeadline(sent.Add(limit)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(loris)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("slow-loris connection still open %v after its partial header", limit)
	}
	if waited := time.Since(dialled); waited < srv.ReadHeaderTimeout {
		t.Fatalf("slow-loris connection closed after %v, before ReadHeaderTimeout %v", waited, srv.ReadHeaderTimeout)
	}
}
