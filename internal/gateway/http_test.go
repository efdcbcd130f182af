package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/obs"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// tinyFleet is a gateway over n real shards ("shard-0"…) that each serve a
// one-layer network on rt, closed at the end of the test.
func tinyFleet(t *testing.T, rt *obs.Runtime, n int) *Gateway {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.NewNetwork = func(version int, _ *xrand.Rand) (*nn.Network, error) {
		return &nn.Network{Name: fmt.Sprintf("tiny-%d", version), Layers: []nn.Layer{
			nn.NewFlatten("flat"),
			nn.NewDense("fc", nn.InputChannels*nn.InputSize*nn.InputSize, signs.NumClasses, xrand.New(1)),
		}}, nil
	}
	cfg.WorkersPerVersion = 1
	cfg.InjectLayer = 0 // the network's only parameterised layer
	gw := New(Config{}, nil)
	t.Cleanup(gw.Close)
	for i := 0; i < n; i++ {
		cfg.ShardLabel = fmt.Sprintf("shard-%d", i)
		srv, err := serve.New(cfg, rt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		sh, err := NewLocalShard(srv)
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.AddShard(sh); err != nil {
			t.Fatal(err)
		}
	}
	return gw
}

func postClassify(h http.Handler, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", body))
	return rec
}

// TestHTTPClassifyRoutesImage posts a raw image through the gateway handler:
// it is decoded by serve.DecodeClassify, routed by its image hash and answered
// with the serving shard named.
func TestHTTPClassifyRoutesImage(t *testing.T) {
	gw, shards := testGateway(t, Config{}, 2)
	image := make([]float32, nn.InputChannels*nn.InputSize*nn.InputSize)
	for i := range image {
		image[i] = float32(i%7) / 8
	}
	body, err := json.Marshal(serve.ClassifyRequest{Image: image})
	if err != nil {
		t.Fatal(err)
	}
	rec := postClassify(gw.Handler(), strings.NewReader(string(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	want := ownerOf(gw, shards, RouteKey(&serve.ClassifyRequest{Image: image})).ID()
	if got := rec.Header().Get("X-Shard"); got != want {
		t.Fatalf("served by %q, ring owner of the image hash is %q", got, want)
	}
	var cr serve.ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || cr.Class != 7 || cr.Proposals != 3 {
		t.Fatalf("response %s (err %v), want the fake shard's class 7 from 3 proposals", rec.Body, err)
	}
}

// TestHTTPClassifyBodyBounds mirrors the shard handler's test of the same
// name: the gateway answers 413 to an oversized body without reading past the
// 1 MiB bound, and 400 to a truncated one, and no shard is ever asked.
func TestHTTPClassifyBodyBounds(t *testing.T) {
	gw, shards := testGateway(t, Config{}, 2)
	h := gw.Handler()
	const bound = 1 << 20
	oversized := strings.NewReader(`{"image":[` + strings.Repeat("0,", bound) + `0]}`)
	size := oversized.Len()
	if rec := postClassify(h, oversized); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}
	if read := size - oversized.Len(); read > bound+1 {
		t.Errorf("oversized body: handler read %d bytes, bound is %d", read, bound)
	}
	for _, body := range []string{`{"image":[0.5,0.25`, `{"class":`} {
		if rec := postClassify(h, strings.NewReader(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("truncated body %s: status %d, want 400", body, rec.Code)
		}
	}
	for _, sh := range shards {
		if sh.calls != 0 {
			t.Errorf("%s was asked to classify a rejected body", sh.id)
		}
	}
}

// FuzzGatewayHandler is the gateway half of serve's FuzzClassifyHandler: any
// body under any Content-Type is answered 200 with a decodable answer from a
// shard of the fleet, or with a JSON error under 400, 413, 429 or 503 —
// never a 500.
func FuzzGatewayHandler(f *testing.F) {
	image, err := json.Marshal(serve.ClassifyRequest{Image: make([]float32, nn.InputChannels*nn.InputSize*nn.InputSize)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct{ contentType, body string }{
		{"application/json", string(image)},
		{"", string(image)},
		{"application/json", `{"class":7,"seed":3}`},
		{"text/plain", `{"class":7}`},
		{"application/json", `{"image":[0.5,0.25,1]}`},
		{"application/json", `{"image":[1e39]}`},
		{"application/json", `{"image":[NaN]}`},
		{"application/json", `{"image":[0.5,0.25`},
		{"application/json", `{"class":`},
		{"application/json", `[]`},
		{"application/json", ``},
		{"application/octet-stream", "\x00\x00\x80\x3f"},
	} {
		f.Add(seed.contentType, []byte(seed.body))
	}
	gw, shards := testGateway(f, Config{}, 2)
	h := gw.Handler()
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q: not a JSON error (%v)", rec.Code, rec.Body.Bytes(), err)
			}
			return
		default:
			t.Fatalf("body %q (%s): status %d", body, contentType, rec.Code)
		}
		var got serve.ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 with body %q: %v", rec.Body.Bytes(), err)
		}
		if got.Class != 7 || got.Proposals != 3 {
			t.Fatalf("body %q: answered %+v, want the fake shards' class 7 from 3 proposals", body, got)
		}
		if shard := rec.Header().Get("X-Shard"); shard != shards[0].id && shard != shards[1].id {
			t.Fatalf("body %q: served by %q, not a shard of the fleet", body, shard)
		}
		if _, _, ok := serve.DecodeClassify(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))); !ok {
			t.Fatalf("body %q answered 200 but does not decode", body)
		}
	})
}

// TestHTTPAdminRejuvenateKinds mirrors the shard handler's test of the same
// name through the gateway and a real shard: only the trigger kinds reach the
// mvserve_rejuvenations_total label ("" means manual); any other kind, or a
// body over the admin bound, is refused before a series exists.
func TestHTTPAdminRejuvenateKinds(t *testing.T) {
	rt := obs.NewRuntime(0)
	h := tinyFleet(t, rt, 1).Handler()
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"shard":"shard-0"}`, http.StatusOK},
		{`{"shard":"shard-0","kind":"manual"}`, http.StatusOK},
		{`{"shard":"shard-0","kind":"proactive"}`, http.StatusOK},
		{`{"shard":"shard-0","kind":"reactive"}`, http.StatusOK},
		{`{"shard":"shard-0","kind":"anything"}`, http.StatusBadRequest},
		{`{"shard":"shard-0","kind":"Manual"}`, http.StatusBadRequest},
		{`{"shard":"shard-0","kind":"manual","pad":"` + strings.Repeat("x", 8<<10) + `"}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/rejuvenate", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%.50s: status %d, want %d", tc.body, rec.Code, tc.want)
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
}

// TestHTTPAdminOps drives the shard-addressed admin endpoints through the
// gateway mux on two real shards: drain sets and clears the flag /healthz
// reports, resize changes the reported worker count and refuses zero,
// compromise answers, and an unknown shard is a 404.
func TestHTTPAdminOps(t *testing.T) {
	h := tinyFleet(t, obs.NewRuntime(0), 2).Handler()
	post := func(path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d (%s), want %d", path, body, rec.Code, rec.Body, want)
		}
	}
	status := func(id string) ShardStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var resp statusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("GET /healthz: status %d, body %s (%v)", rec.Code, rec.Body, err)
		}
		for _, st := range resp.Shards {
			if st.ID == id {
				return st
			}
		}
		t.Fatalf("GET /healthz: no row for %s in %+v", id, resp.Shards)
		return ShardStatus{}
	}

	post("/admin/drain", `{"shard":"shard-1"}`, http.StatusOK)
	if !status("shard-1").Draining || status("shard-0").Draining {
		t.Fatal("drain of shard-1 not reported on shard-1 alone")
	}
	post("/admin/drain", `{"shard":"shard-1","draining":false}`, http.StatusOK)
	if status("shard-1").Draining {
		t.Fatal("shard-1 still draining after the drain was cleared")
	}

	post("/admin/resize", `{"shard":"shard-0","workers":3}`, http.StatusOK)
	if got := status("shard-0").Workers; got != 3 {
		t.Fatalf("shard-0 reports %d workers after a resize to 3", got)
	}
	post("/admin/resize", `{"shard":"shard-0","workers":0}`, http.StatusBadRequest)
	if got := status("shard-0").Workers; got != 3 {
		t.Fatalf("shard-0 reports %d workers after a refused resize, want 3", got)
	}

	post("/admin/compromise", `{"shard":"shard-1","version":0}`, http.StatusOK)
	for _, path := range []string{"/admin/drain", "/admin/resize", "/admin/compromise", "/admin/rejuvenate"} {
		post(path, `{"shard":"shard-9","workers":2}`, http.StatusNotFound)
	}
}
