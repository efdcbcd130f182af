package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvml/internal/nn"
	"mvml/internal/serve"
)

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
