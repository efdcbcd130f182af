// Package tsdb is the offline time-series aggregator behind `mvtrace dash`:
// fixed-width time buckets per series with bounded retention, filled by
// streaming aggregation of a span export (Ingester, Replay) and read back as
// a sorted snapshot, per-bucket sums and exemplar trace ids.
//
// The store is passive and deterministic: nothing here consumes randomness,
// content advances only on span timestamps (so feeding a sink's stream live
// and replaying its spans.jsonl agree byte-for-byte), and every
// read iterates series in sorted order so output is reproducible.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"mvml/internal/obs"
	"mvml/internal/stats"
)

// Config parameterises a Store.
type Config struct {
	// BucketSeconds is the time-bucket width; <= 0 selects 1s.
	BucketSeconds float64
	// Buckets is the per-series retention ring length (how many time
	// buckets of history each series keeps); <= 0 selects 600.
	Buckets int
}

func (c Config) withDefaults() Config {
	if c.BucketSeconds <= 0 {
		c.BucketSeconds = 1
	}
	if c.Buckets <= 0 {
		c.Buckets = 600
	}
	return c
}

// maxSeries bounds the total series count: writes to a new series beyond it
// are dropped.
const maxSeries = 4096

// histBounds are the value-bucket upper bounds of every histogram series.
var histBounds = obs.LatencyBuckets()

// Point is one non-empty time bucket of a series: T is the bucket's start
// time, V the bucket's value (sum of deltas for rate series, observation
// count for histograms).
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Exemplar links a histogram value bucket to a trace: "a request
// that landed in this latency bucket looks like trace Trace".
type Exemplar struct {
	Trace uint64  `json:"trace"`
	Value float64 `json:"value"`
	T     float64 `json:"t"`
}

// seriesKind is the per-series aggregation shape.
type seriesKind uint8

const (
	kindRate seriesKind = iota + 1
	kindHist
)

func (k seriesKind) String() string {
	if k == kindHist {
		return "histogram"
	}
	return "rate"
}

// histCell is one time bucket of a histogram series.
type histCell struct {
	counts []uint64 // per value bucket (len(histBounds)+1, last = +Inf)
	sum    float64
	count  uint64
}

// cell is one time bucket of any series. idx names the absolute time-bucket
// index the cell currently holds; a ring position is valid for a query only
// when its idx matches the queried index (stale positions are lazily
// recycled as time advances).
type cell struct {
	idx int64 // -1 when never written
	v   float64
	h   *histCell
}

// seriesData is one (name, labels) series: a ring of time-bucket cells plus,
// for histograms, the per-value-bucket exemplar table (latest-wins, global
// over the series' lifetime — the freshest trace per latency band).
type seriesData struct {
	name   string
	labels string // canonical `k="v",...` form, "" for none
	kind   seriesKind
	ring   []cell
	maxIdx int64      // highest time-bucket index ever written
	ex     []Exemplar // histogram only; Trace==0 means empty slot
}

// Store is the time-series store. All methods are safe for concurrent use; a
// nil *Store is a valid no-op handle.
type Store struct {
	cfg Config

	mu     sync.Mutex
	series map[string]*seriesData
	order  []string // sorted keys for deterministic iteration
}

// New returns an empty store.
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[string]*seriesData)}
}

// canonKV canonicalises alternating key/value label pairs into the same
// sorted `k="v",...` form the metrics registry uses.
func canonKV(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("tsdb: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

// get finds or creates a series. Caller holds s.mu. Returns nil when the
// series bound refuses a new series.
func (s *Store) get(name string, kind seriesKind, labels string) *seriesData {
	key := name + "\xff" + labels
	sd := s.series[key]
	if sd != nil {
		if sd.kind != kind {
			panic(fmt.Sprintf("tsdb: series %s{%s} written as %s, requested as %s",
				name, labels, sd.kind, kind))
		}
		return sd
	}
	if len(s.series) >= maxSeries {
		return nil
	}
	sd = &seriesData{name: name, labels: labels, kind: kind,
		ring: make([]cell, s.cfg.Buckets), maxIdx: -1}
	for i := range sd.ring {
		sd.ring[i].idx = -1
	}
	if kind == kindHist {
		sd.ex = make([]Exemplar, len(histBounds)+1)
	}
	s.series[key] = sd
	// Insert the key in sorted position so iteration order never depends on
	// map order.
	pos := sort.SearchStrings(s.order, key)
	s.order = append(s.order, "")
	copy(s.order[pos+1:], s.order[pos:])
	s.order[pos] = key
	return sd
}

// cellAt returns the ring cell for absolute time-bucket index idx, recycling
// a stale position. Caller holds s.mu.
func (s *Store) cellAt(sd *seriesData, idx int64) *cell {
	if idx < 0 {
		idx = 0
	}
	c := &sd.ring[idx%int64(len(sd.ring))]
	if c.idx != idx {
		*c = cell{idx: idx}
	}
	if idx > sd.maxIdx {
		sd.maxIdx = idx
	}
	return c
}

func (s *Store) bucketIdx(t float64) int64 {
	return int64(math.Floor(t / s.cfg.BucketSeconds))
}

// Add accumulates delta into the rate series (name, kv) at time t.
func (s *Store) Add(name string, t, delta float64, kv ...string) {
	if s == nil {
		return
	}
	labels := canonKV(kv)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sd := s.get(name, kindRate, labels); sd != nil {
		s.cellAt(sd, s.bucketIdx(t)).v += delta
	}
}

// ObserveEx records a histogram observation at time t; when trace is
// non-zero it becomes the value bucket's exemplar (latest-wins).
func (s *Store) ObserveEx(name string, t, v float64, trace uint64, kv ...string) {
	if s == nil {
		return
	}
	labels := canonKV(kv)
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.get(name, kindHist, labels)
	if sd == nil {
		return
	}
	c := s.cellAt(sd, s.bucketIdx(t))
	if c.h == nil {
		c.h = &histCell{counts: make([]uint64, len(histBounds)+1)}
	}
	// SearchFloat64s finds the first bound >= v; buckets are `le` bounds so
	// v exactly on a bound belongs to that bucket.
	b := sort.SearchFloat64s(histBounds, v)
	c.h.counts[b]++
	c.h.sum += v
	c.h.count++
	if trace != 0 && t >= sd.ex[b].T {
		sd.ex[b] = Exemplar{Trace: trace, Value: v, T: t}
	}
}

// visit iterates the valid cells of series sd overlapping [t0, t1).
// Caller holds s.mu.
func (sd *seriesData) visit(s *Store, t0, t1 float64, fn func(c *cell)) {
	if sd == nil {
		return
	}
	i0, i1 := s.bucketIdx(t0), s.bucketIdx(t1)
	// Live cells only span [maxIdx-len+1, maxIdx]; clamp the walk to that
	// range so wide windows don't scan (or alias into) recycled buckets.
	if i1 > sd.maxIdx {
		i1 = sd.maxIdx
	}
	if lo := sd.maxIdx - int64(len(sd.ring)) + 1; i0 < lo {
		i0 = lo
	}
	for i := i0; i <= i1; i++ {
		if i < 0 {
			continue
		}
		c := &sd.ring[i%int64(len(sd.ring))]
		if c.idx == i {
			fn(c)
		}
	}
}

// ExemplarNearLabels returns the exemplar closest to value v in the
// histogram series (name, labels) — labels in the canonical form Snapshot
// and LabelSets report: the exemplar of v's own value bucket if present,
// else the nearest populated bucket's. The second result reports whether
// any exemplar exists.
func (s *Store) ExemplarNearLabels(name, labels string, v float64) (Exemplar, bool) {
	if s == nil {
		return Exemplar{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.series[name+"\xff"+labels]
	if sd == nil || sd.kind != kindHist {
		return Exemplar{}, false
	}
	b := sort.SearchFloat64s(histBounds, v)
	best, found := Exemplar{}, false
	bestDist := math.MaxInt
	for i, e := range sd.ex {
		if e.Trace == 0 {
			continue
		}
		d := i - b
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, found, bestDist = e, true, d
		}
	}
	return best, found
}

// SumOverLabels returns the total a rate series (name, labels) accumulated
// over [t0, t1], labels in the canonical form Snapshot and LabelSets report.
func (s *Store) SumOverLabels(name, labels string, t0, t1 float64) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	s.series[name+"\xff"+labels].visit(s, t0, t1, func(c *cell) { sum += c.v })
	return sum
}

// FamilySumOver sums a rate family over [t0, t1] across every label set
// (cross-shard aggregation).
func (s *Store) FamilySumOver(name string, t0, t1 float64) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, key := range s.order {
		if sd := s.series[key]; sd.name == name {
			sd.visit(s, t0, t1, func(c *cell) { sum += c.v })
		}
	}
	return sum
}

// SeriesView is one series in a store snapshot.
type SeriesView struct {
	Name      string     `json:"name"`
	Labels    string     `json:"labels,omitempty"`
	Kind      string     `json:"kind"`
	Points    []Point    `json:"points,omitempty"`
	Count     uint64     `json:"count,omitempty"` // histogram: total observations
	Sum       float64    `json:"sum,omitempty"`
	P50       float64    `json:"p50,omitempty"`
	P99       float64    `json:"p99,omitempty"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot captures every series: points ascending in time, series sorted by
// (name, labels) — deterministic for goldens and the dashboard's JSON
// report. Histogram points carry the per-bucket observation count; quantiles
// summarise the whole retained window.
func (s *Store) Snapshot() []SeriesView {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesView, 0, len(s.order))
	for _, key := range s.order {
		sd := s.series[key]
		sv := SeriesView{Name: sd.name, Labels: sd.labels, Kind: sd.kind.String()}
		var merged []uint64
		if sd.kind == kindHist {
			merged = make([]uint64, len(histBounds)+1)
		}
		for i := max(0, sd.maxIdx-int64(len(sd.ring))+1); i <= sd.maxIdx; i++ {
			c := &sd.ring[i%int64(len(sd.ring))]
			if c.idx != i {
				continue
			}
			t := float64(i) * s.cfg.BucketSeconds
			if c.h == nil {
				sv.Points = append(sv.Points, Point{T: t, V: c.v})
				continue
			}
			sv.Points = append(sv.Points, Point{T: t, V: float64(c.h.count)})
			sv.Count += c.h.count
			sv.Sum += c.h.sum
			for b, n := range c.h.counts {
				merged[b] += n
			}
		}
		if sv.Count > 0 {
			sv.P50 = stats.BucketQuantile(histBounds, merged, 0.5)
			sv.P99 = stats.BucketQuantile(histBounds, merged, 0.99)
		}
		for _, e := range sd.ex {
			if e.Trace != 0 {
				sv.Exemplars = append(sv.Exemplars, e)
			}
		}
		out = append(out, sv)
	}
	return out
}

// LabelSets returns the canonical label strings of every series in family
// name, sorted.
func (s *Store) LabelSets(name string) []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, key := range s.order {
		if sd := s.series[key]; sd.name == name {
			out = append(out, sd.labels)
		}
	}
	return out
}
