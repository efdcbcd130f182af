package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"mvml/internal/health"
	"mvml/internal/serve"
)

// ShardStatus is one shard's row in the gateway /healthz body.
type ShardStatus struct {
	ID         string       `json:"id"`
	Level      health.Level `json:"level"`
	Draining   bool         `json:"draining"`
	QueueDepth int          `json:"queue_depth"`
	QueueCap   int          `json:"queue_capacity"`
	Workers    int          `json:"workers"`
}

// statusResponse is the JSON body of the gateway's GET /healthz.
type statusResponse struct {
	Status   string        `json:"status"`
	Inflight int           `json:"inflight"`
	Shards   []ShardStatus `json:"shards"`
}

// gwAdminRequest is the JSON body of the gateway /admin endpoints.
type gwAdminRequest struct {
	Shard    string `json:"shard"`
	Version  int    `json:"version,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Draining *bool  `json:"draining,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the gateway's HTTP API — the same data plane a single
// server exposes, plus shard-addressed admin:
//
//	POST /v1/classify      — classify (routed; 429 on gateway shed, 413 on a
//	                         body over 1 MiB)
//	GET  /healthz          — per-shard level, drain state and queue depth
//	POST /admin/rejuvenate — rejuvenate every version of one shard
//	POST /admin/compromise — fault-inject one version of one shard
//	POST /admin/drain      — set/clear one shard's drain flag
//	POST /admin/resize     — set one shard's per-version arena count
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", g.handleClassify)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("POST /admin/rejuvenate", g.handleAdmin(func(sc ShardClient, req *gwAdminRequest) error {
		return sc.Rejuvenate(req.Kind)
	}))
	mux.HandleFunc("POST /admin/compromise", g.handleAdmin(func(sc ShardClient, req *gwAdminRequest) error {
		return sc.Compromise(req.Version)
	}))
	mux.HandleFunc("POST /admin/drain", g.handleAdmin(func(sc ShardClient, req *gwAdminRequest) error {
		v := true
		if req.Draining != nil {
			v = *req.Draining
		}
		sc.SetDraining(v)
		return nil
	}))
	mux.HandleFunc("POST /admin/resize", g.handleAdmin(func(sc ShardClient, req *gwAdminRequest) error {
		return sc.Resize(req.Workers)
	}))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (g *Gateway) handleClassify(w http.ResponseWriter, r *http.Request) {
	req, img, ok := serve.DecodeClassify(w, r)
	if !ok {
		return
	}
	start := time.Now()
	res, info, err := g.Classify(RouteKey(&req), r.Header.Get("X-Client-ID"), img)
	switch {
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrNoShards), errors.Is(err, ErrExhausted), errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		w.Header().Set("X-Shard", info.Shard)
		writeJSON(w, http.StatusOK, serve.ClassifyResponse{
			Class:     res.Class,
			Degraded:  res.Degraded,
			Reason:    res.Reason,
			Agreeing:  res.Agreeing,
			Proposals: res.Proposals,
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := statusResponse{Status: "ok", Inflight: g.Inflight()}
	worst := health.Healthy
	for _, id := range g.Shards() {
		sc := g.Shard(id)
		if sc == nil {
			continue
		}
		st := ShardStatus{
			ID:         sc.ID(),
			Level:      sc.Level(),
			Draining:   sc.Draining(),
			QueueDepth: sc.QueueDepth(),
			QueueCap:   sc.QueueCapacity(),
			Workers:    sc.Workers(),
		}
		if st.Level > worst {
			worst = st.Level
		}
		resp.Shards = append(resp.Shards, st)
	}
	resp.Status = worst.String()
	writeJSON(w, http.StatusOK, resp)
}

// maxAdminBody bounds an /admin body: a shard id and a few small fields.
const maxAdminBody = 4 << 10

// handleAdmin wraps a shard-addressed admin operation: read the bounded
// body, resolve the shard, run the op.
func (g *Gateway) handleAdmin(op func(sc ShardClient, req *gwAdminRequest) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req gwAdminRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
			return
		}
		sc := g.Shard(req.Shard)
		if sc == nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown shard " + req.Shard})
			return
		}
		if err := op(sc, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}
