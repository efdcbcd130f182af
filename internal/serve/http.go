package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mvml/internal/health"
	"mvml/internal/nn"
	"mvml/internal/signs"
	"mvml/internal/tensor"
	"mvml/internal/xrand"
)

// ClassifyRequest is the JSON body of POST /v1/classify. Either Image (a
// flat channel-major pixel array of length C·H·W) or Class (a synthetic
// traffic sign rendered server-side, deterministic in Class and Seed) must
// be set.
type ClassifyRequest struct {
	Image []float32 `json:"image,omitempty"`
	Class *int      `json:"class,omitempty"`
	Seed  uint64    `json:"seed,omitempty"`
}

// ClassifyResponse is the JSON answer for one classification.
type ClassifyResponse struct {
	Class     int     `json:"class"`
	Degraded  bool    `json:"degraded"`
	Reason    string  `json:"reason,omitempty"`
	Agreeing  int     `json:"agreeing"`
	Proposals int     `json:"proposals"`
	LatencyMS float64 `json:"latency_ms"`
}

// healthResponse is the JSON body of GET /healthz.
type healthResponse struct {
	Status     string          `json:"status"`
	QueueDepth int             `json:"queue_depth"`
	Versions   []VersionStatus `json:"versions"`
	// Health carries the streaming health engine's verdict (components,
	// SLO budgets, online α) when the engine is enabled.
	Health *health.Verdict `json:"health,omitempty"`
}

// adminRequest is the JSON body of the /admin endpoints.
type adminRequest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/classify     — classify one image (429 when the queue is full,
//	                        413 when the body exceeds 1 MiB)
//	GET  /healthz         — per-version health and queue depth
//	POST /admin/rejuvenate — manually drain+restore one version
//	POST /admin/compromise — fault-inject one version (demos/tests)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /admin/rejuvenate", s.handleRejuvenate)
	mux.HandleFunc("POST /admin/compromise", s.handleCompromise)
	return mux
}

// NewHTTPServer wraps a data-plane handler (the shard's or the gateway's) in
// an http.Server with every timeout set, so a client that stalls while sending
// its headers or body, never reads its answer, or parks idle connections holds
// a goroutine for a bounded time only. The write bound is far above any
// request deadline a deployment would configure (default 500 ms).
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	_, img, ok := DecodeClassify(w, r)
	if !ok {
		return
	}
	start := time.Now()
	res, err := s.Classify(img)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Explicit backpressure: tell the client when to come back instead
		// of letting the queue grow without bound.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrNoProposals), errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, ClassifyResponse{
			Class:     res.Class,
			Degraded:  res.Degraded,
			Reason:    res.Reason,
			Agreeing:  res.Agreeing,
			Proposals: res.Proposals,
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
}

// Tensor materialises the request's image: either the client's raw pixels or
// a server-rendered synthetic sign (deterministic in Class and Seed, which
// makes load generation and determinism tests trivial). Exported so the
// gateway's HTTP layer decodes requests identically to a standalone server.
func (req *ClassifyRequest) Tensor() (*tensor.Tensor, error) {
	want := nn.InputChannels * nn.InputSize * nn.InputSize
	switch {
	case len(req.Image) > 0 && req.Class != nil:
		return nil, errors.New(`provide "image" or "class", not both`)
	case len(req.Image) > 0:
		return tensor.FromSlice(req.Image, nn.InputChannels, nn.InputSize, nn.InputSize)
	case req.Class != nil:
		c := *req.Class
		if c < 0 || c >= signs.NumClasses {
			return nil, fmt.Errorf("class %d outside [0,%d)", c, signs.NumClasses)
		}
		r := xrand.New(req.Seed).Split("render", uint64(c))
		return signs.Render(c, r, signs.DefaultConfig()), nil
	default:
		return nil, fmt.Errorf(`provide "image" (%d values) or "class"`, want)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	versions, depth := s.Status()
	resp := healthResponse{
		Status:     "ok",
		QueueDepth: depth,
		Versions:   versions,
	}
	if v := s.health.Snapshot(); v != nil {
		resp.Health = v
		resp.Status = v.Overall.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxAdminBody bounds an /admin body: a version index and a kind.
const maxAdminBody = 4 << 10

func (s *Server) handleRejuvenate(w http.ResponseWriter, r *http.Request) {
	var req adminRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	if err := s.Rejuvenate(req.Version, req.Kind); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "rejuvenated"})
}

func (s *Server) handleCompromise(w http.ResponseWriter, r *http.Request) {
	var req adminRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	if err := s.Compromise(req.Version); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "compromised"})
}
