package gateway

import (
	"mvml/internal/health"
	"mvml/internal/serve"
	"mvml/internal/tensor"
)

// ShardClient is the gateway's view of one serving shard: enough to route
// (Classify), to judge (Level, Draining), to report (QueueDepth,
// QueueCapacity, Workers) and to run the shard-addressed admin operations.
// LocalShard implements it over an in-process *serve.Server.
type ShardClient interface {
	// ID is the shard's stable ring identity (its serve.Config.ShardLabel).
	ID() string
	// Classify answers one request on this shard.
	Classify(img *tensor.Tensor) (serve.Result, error)
	// Level is the shard's routing level, computed from the shard's own
	// state, never from telemetry (serve.Server.Level). The router reads it
	// for every candidate of every request, so it must be cheap.
	Level() health.Level
	// Draining reports whether the shard is being retired: it still answers
	// whatever reaches it, but new traffic should prefer its ring successor.
	Draining() bool
	// QueueDepth / QueueCapacity expose the shard's admission backlog.
	QueueDepth() int
	QueueCapacity() int
	// Workers returns the current per-version arena count.
	Workers() int
	// Resize sets the per-version arena count.
	Resize(perVersion int) error
	// SetDraining flips the advisory drain flag.
	SetDraining(v bool)
	// Rejuvenate restores every version of the shard to pristine weights;
	// kind is one of serve's Rejuv* kinds ("" means manual).
	Rejuvenate(kind string) error
	// Compromise fault-injects one version (demos and tests only).
	Compromise(version int) error
}

// LocalShard adapts an in-process *serve.Server to ShardClient.
type LocalShard struct {
	srv *serve.Server
}

// NewLocalShard wraps srv. The server must have a non-empty ShardLabel (the
// ring identity) — enforced here rather than discovered as a hash collision
// later.
func NewLocalShard(srv *serve.Server) (*LocalShard, error) {
	if srv.ShardLabel() == "" {
		return nil, errEmptyShardLabel
	}
	return &LocalShard{srv: srv}, nil
}

// Server exposes the wrapped server (demo wiring needs the raw handle).
func (s *LocalShard) Server() *serve.Server { return s.srv }

// ID implements ShardClient.
func (s *LocalShard) ID() string { return s.srv.ShardLabel() }

// Classify implements ShardClient.
func (s *LocalShard) Classify(img *tensor.Tensor) (serve.Result, error) {
	return s.srv.Classify(img)
}

// Level implements ShardClient.
func (s *LocalShard) Level() health.Level { return s.srv.Level() }

// Draining implements ShardClient.
func (s *LocalShard) Draining() bool { return s.srv.Draining() }

// QueueDepth implements ShardClient.
func (s *LocalShard) QueueDepth() int { return s.srv.QueueDepth() }

// QueueCapacity implements ShardClient.
func (s *LocalShard) QueueCapacity() int { return s.srv.QueueCapacity() }

// Workers implements ShardClient.
func (s *LocalShard) Workers() int { return s.srv.Workers() }

// Resize implements ShardClient.
func (s *LocalShard) Resize(perVersion int) error { return s.srv.ResizeWorkers(perVersion) }

// SetDraining implements ShardClient.
func (s *LocalShard) SetDraining(v bool) { s.srv.SetDraining(v) }

// Rejuvenate implements ShardClient.
func (s *LocalShard) Rejuvenate(kind string) error { return s.srv.RejuvenateAll(kind) }

// Compromise implements ShardClient.
func (s *LocalShard) Compromise(version int) error { return s.srv.Compromise(version) }

// Close shuts the wrapped server down. The gateway never calls it: it routes
// over shards, it does not own them.
func (s *LocalShard) Close() { s.srv.Close() }
