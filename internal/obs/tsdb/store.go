// Package tsdb is an in-process time-series store for the observability
// pipeline: fixed-width time buckets per series with bounded retention,
// filled from two sources — streaming aggregation of the span firehose
// (Ingester) and periodic scrapes of the metrics registry (Scraper) — and
// queried by recording rules (Rules), the gateway autoscaler and the
// `mvtrace dash` dashboard.
//
// Like the rest of the obs stack the store is passive and deterministic:
// nothing here consumes randomness or feeds back into serving decisions,
// span-derived content advances only on span timestamps (so a live store and
// one replayed from the same spans.jsonl agree byte-for-byte), and every
// exposition path iterates series in sorted order so output is reproducible.
package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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
	// HistBounds are the value-bucket upper bounds for histogram series;
	// empty selects obs.LatencyBuckets.
	HistBounds []float64
	// MaxSeries bounds the total series count (new series beyond the bound
	// are silently coalesced into the overflow counter); <= 0 selects 4096.
	MaxSeries int
}

func (c Config) withDefaults() Config {
	if c.BucketSeconds <= 0 {
		c.BucketSeconds = 1
	}
	if c.Buckets <= 0 {
		c.Buckets = 600
	}
	if len(c.HistBounds) == 0 {
		c.HistBounds = obs.LatencyBuckets()
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 4096
	}
	return c
}

// Point is one non-empty time bucket of a series: T is the bucket's start
// time, V the bucket's value (sum of deltas for rate series, last write for
// gauges, observation count for histograms).
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Exemplar links a histogram value bucket to a retained trace: "a request
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
	kindGauge
	kindHist
)

func (k seriesKind) String() string {
	switch k {
	case kindRate:
		return "rate"
	case kindGauge:
		return "gauge"
	case kindHist:
		return "histogram"
	}
	return "unknown"
}

// histCell is one time bucket of a histogram series.
type histCell struct {
	counts []uint64 // per value bucket (len(bounds)+1, last = +Inf)
	sum    float64
	count  uint64
}

// cell is one time bucket of any series. idx names the absolute time-bucket
// index the cell currently holds; a ring position is valid for a query only
// when its idx matches the queried index (stale positions are lazily
// recycled as time advances).
type cell struct {
	idx   int64 // -1 when never written
	v     float64
	lastT float64 // gauge: time of last write (last-write-wins within bucket)
	h     *histCell
}

// seriesData is one (name, labels) series: a ring of time-bucket cells plus,
// for histograms, the per-value-bucket exemplar table (latest-wins, global
// over the series' lifetime — the freshest retained trace per latency band).
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

	mu       sync.Mutex
	series   map[string]*seriesData
	order    []string // sorted keys for deterministic iteration
	samples  uint64
	evicted  uint64 // time buckets recycled before ever being queried
	overflow uint64 // writes refused by the MaxSeries bound

	samplesC  *obs.Counter
	evictedC  *obs.Counter
	overflowC *obs.Counter
	seriesG   *obs.Gauge
}

// New returns an empty store.
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[string]*seriesData)}
}

// Names of the store's self-metrics, registered by Register.
const (
	MetricSamples  = "mv_tsdb_samples_total"
	MetricEvicted  = "mv_tsdb_evicted_buckets_total"
	MetricOverflow = "mv_tsdb_series_overflow_total"
	MetricSeries   = "mv_tsdb_series"
)

// Register mirrors the store's own health into reg: sample/eviction/overflow
// counters and the live series-count gauge.
func (s *Store) Register(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.Help(MetricSamples, "Samples written into the time-series store.")
	reg.Help(MetricEvicted, "Time buckets recycled by the store's bounded retention.")
	reg.Help(MetricOverflow, "Writes refused because the store's series bound was reached.")
	reg.Help(MetricSeries, "Live series in the time-series store.")
	s.mu.Lock()
	s.samplesC = reg.Counter(MetricSamples)
	s.evictedC = reg.Counter(MetricEvicted)
	s.overflowC = reg.Counter(MetricOverflow)
	s.seriesG = reg.Gauge(MetricSeries)
	s.seriesG.Set(float64(len(s.series)))
	s.mu.Unlock()
}

// BucketSeconds returns the store's time-bucket width (0 on nil).
func (s *Store) BucketSeconds() float64 {
	if s == nil {
		return 0
	}
	return s.cfg.BucketSeconds
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
	if len(s.series) >= s.cfg.MaxSeries {
		s.overflow++
		s.overflowC.Inc()
		return nil
	}
	sd = &seriesData{name: name, labels: labels, kind: kind,
		ring: make([]cell, s.cfg.Buckets), maxIdx: -1}
	for i := range sd.ring {
		sd.ring[i].idx = -1
	}
	if kind == kindHist {
		sd.ex = make([]Exemplar, len(s.cfg.HistBounds)+1)
	}
	s.series[key] = sd
	// Insert the key in sorted position so iteration order never depends on
	// map order.
	pos := sort.SearchStrings(s.order, key)
	s.order = append(s.order, "")
	copy(s.order[pos+1:], s.order[pos:])
	s.order[pos] = key
	s.seriesG.Set(float64(len(s.series)))
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
		if c.idx >= 0 {
			s.evicted++
			s.evictedC.Inc()
		}
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
	sd := s.get(name, kindRate, labels)
	if sd == nil {
		return
	}
	s.cellAt(sd, s.bucketIdx(t)).v += delta
	s.samples++
	s.samplesC.Inc()
}

// Set records a gauge write at time t (last write within a bucket wins; a
// write earlier than the bucket's latest is ignored).
func (s *Store) Set(name string, t, v float64, kv ...string) {
	if s == nil {
		return
	}
	labels := canonKV(kv)
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.get(name, kindGauge, labels)
	if sd == nil {
		return
	}
	c := s.cellAt(sd, s.bucketIdx(t))
	if t >= c.lastT {
		c.v, c.lastT = v, t
	}
	s.samples++
	s.samplesC.Inc()
}

// Observe records a histogram observation at time t with no exemplar.
func (s *Store) Observe(name string, t, v float64, kv ...string) {
	s.ObserveEx(name, t, v, 0, kv...)
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
		c.h = &histCell{counts: make([]uint64, len(s.cfg.HistBounds)+1)}
	}
	b := s.valueBucket(v)
	c.h.counts[b]++
	c.h.sum += v
	c.h.count++
	if trace != 0 && t >= sd.ex[b].T {
		sd.ex[b] = Exemplar{Trace: trace, Value: v, T: t}
	}
	s.samples++
	s.samplesC.Inc()
}

// valueBucket maps v to its value-bucket index (len(bounds) = +Inf bucket).
func (s *Store) valueBucket(v float64) int {
	bounds := s.cfg.HistBounds
	i := sort.SearchFloat64s(bounds, v)
	// SearchFloat64s finds the first bound >= v; buckets are `le` bounds so
	// v exactly on a bound belongs to that bucket.
	return i
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

func (s *Store) lookup(name string, kv []string) *seriesData {
	return s.series[name+"\xff"+canonKV(kv)]
}

// RateOver returns the per-second rate of the rate series over [t0, t1].
func (s *Store) RateOver(name string, t0, t1 float64, kv ...string) float64 {
	if s == nil || t1 <= t0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	s.lookup(name, kv).visit(s, t0, t1, func(c *cell) { sum += c.v })
	return sum / (t1 - t0)
}

// SumOver returns the total accumulated by a rate series over [t0, t1].
func (s *Store) SumOver(name string, t0, t1 float64, kv ...string) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	s.lookup(name, kv).visit(s, t0, t1, func(c *cell) { sum += c.v })
	return sum
}

// LastValue returns the most recent gauge write (any time bucket), reporting
// whether the series has one.
func (s *Store) LastValue(name string, kv ...string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.lookup(name, kv)
	if sd == nil || sd.maxIdx < 0 {
		return 0, false
	}
	c := &sd.ring[sd.maxIdx%int64(len(sd.ring))]
	if c.idx != sd.maxIdx {
		return 0, false
	}
	return c.v, true
}

// mergeHist merges a histogram series' cells over [t0, t1]. Caller holds
// s.mu. Returns nil when the window holds no observations.
func (s *Store) mergeHist(sd *seriesData, t0, t1 float64) *histCell {
	if sd == nil || sd.kind != kindHist {
		return nil
	}
	m := &histCell{counts: make([]uint64, len(s.cfg.HistBounds)+1)}
	sd.visit(s, t0, t1, func(c *cell) {
		if c.h == nil {
			return
		}
		for i, n := range c.h.counts {
			m.counts[i] += n
		}
		m.sum += c.h.sum
		m.count += c.h.count
	})
	if m.count == 0 {
		return nil
	}
	return m
}

// QuantileOver estimates quantile q of a histogram series over [t0, t1],
// reporting whether the window held any observations.
func (s *Store) QuantileOver(name string, t0, t1, q float64, kv ...string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.mergeHist(s.lookup(name, kv), t0, t1)
	if m == nil {
		return 0, false
	}
	return stats.BucketQuantile(s.cfg.HistBounds, m.counts, q), true
}

// ExemplarNear returns the exemplar closest to value v in a histogram
// series: the exemplar of v's own value bucket if present, else the nearest
// populated bucket's. The second result reports whether any exemplar exists.
func (s *Store) ExemplarNear(name string, v float64, kv ...string) (Exemplar, bool) {
	if s == nil {
		return Exemplar{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.lookup(name, kv)
	if sd == nil || sd.kind != kindHist {
		return Exemplar{}, false
	}
	return s.exemplarNearLocked(sd, v)
}

// ExemplarNearLabels is ExemplarNear addressed by a canonical label string
// (as reported by Snapshot), for callers walking snapshot views.
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
	return s.exemplarNearLocked(sd, v)
}

func (s *Store) exemplarNearLocked(sd *seriesData, v float64) (Exemplar, bool) {
	b := s.valueBucket(v)
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

// SumOverLabels is SumOver addressed by a canonical label string (as
// reported by Snapshot and LabelSets).
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

// Exemplars returns a histogram series' populated exemplars, lowest value
// bucket first.
func (s *Store) Exemplars(name string, kv ...string) []Exemplar {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.lookup(name, kv)
	if sd == nil {
		return nil
	}
	var out []Exemplar
	for _, e := range sd.ex {
		if e.Trace != 0 {
			out = append(out, e)
		}
	}
	return out
}

// matchLabels reports whether a series' canonical label string contains
// every k=v pair in match (alternating kv list). Parts are compared exactly,
// so a value embedding another pair's text cannot false-positive.
func matchLabels(labels string, match []string) bool {
	if len(match) == 0 {
		return true
	}
	parts := splitTopLevel(labels)
	for i := 0; i+1 < len(match); i += 2 {
		want := fmt.Sprintf("%s=%q", match[i], match[i+1])
		ok := false
		for _, p := range parts {
			if p == want {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// familyEach visits every series of family name whose labels contain all
// match pairs. Caller holds s.mu.
func (s *Store) familyEach(name string, match []string, fn func(sd *seriesData)) {
	for _, key := range s.order {
		sd := s.series[key]
		if sd.name == name && matchLabels(sd.labels, match) {
			fn(sd)
		}
	}
}

// FamilySumOver sums a rate family over [t0, t1] across every series whose
// labels contain all match pairs (cross-shard aggregation).
func (s *Store) FamilySumOver(name string, t0, t1 float64, match ...string) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	s.familyEach(name, match, func(sd *seriesData) {
		sd.visit(s, t0, t1, func(c *cell) { sum += c.v })
	})
	return sum
}

// FamilyQuantileOver estimates quantile q over [t0, t1] with the value
// buckets of every matching series merged.
func (s *Store) FamilyQuantileOver(name string, t0, t1, q float64, match ...string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &histCell{counts: make([]uint64, len(s.cfg.HistBounds)+1)}
	s.familyEach(name, match, func(sd *seriesData) {
		if h := s.mergeHist(sd, t0, t1); h != nil {
			for i, n := range h.counts {
				m.counts[i] += n
			}
			m.count += h.count
		}
	})
	if m.count == 0 {
		return 0, false
	}
	return stats.BucketQuantile(s.cfg.HistBounds, m.counts, q), true
}

// FamilyLastSum sums the latest gauge value of every matching series.
func (s *Store) FamilyLastSum(name string, match ...string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	found := false
	s.familyEach(name, match, func(sd *seriesData) {
		if sd.maxIdx < 0 {
			return
		}
		c := &sd.ring[sd.maxIdx%int64(len(sd.ring))]
		if c.idx == sd.maxIdx {
			sum += c.v
			found = true
		}
	})
	return sum, found
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
		lo := sd.maxIdx - int64(len(sd.ring)) + 1
		if lo < 0 {
			lo = 0
		}
		if sd.maxIdx >= 0 {
			for i := lo; i <= sd.maxIdx; i++ {
				c := &sd.ring[i%int64(len(sd.ring))]
				if c.idx != i {
					continue
				}
				t := float64(i) * s.cfg.BucketSeconds
				switch sd.kind {
				case kindHist:
					if c.h != nil {
						sv.Points = append(sv.Points, Point{T: t, V: float64(c.h.count)})
						sv.Count += c.h.count
						sv.Sum += c.h.sum
					}
				default:
					sv.Points = append(sv.Points, Point{T: t, V: c.v})
				}
			}
		}
		if sd.kind == kindHist && sv.Count > 0 {
			if m := s.mergeHist(sd, float64(lo)*s.cfg.BucketSeconds,
				float64(sd.maxIdx+1)*s.cfg.BucketSeconds); m != nil {
				sv.P50 = stats.BucketQuantile(s.cfg.HistBounds, m.counts, 0.5)
				sv.P99 = stats.BucketQuantile(s.cfg.HistBounds, m.counts, 0.99)
			}
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

// splitTopLevel splits a canonical label string on commas outside quotes.
func splitTopLevel(labels string) []string {
	var parts []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, labels[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, labels[start:])
	return parts
}

// WritePrometheus writes the store's content as Prometheus-flavoured text:
// rate series as per-bucket sample lines, gauges as their latest value,
// histograms as cumulative value buckets with OpenMetrics-style exemplar
// annotations. Series iterate in sorted order and floats render in the
// registry's canonical form, so repeated calls over unchanged content are
// byte-identical.
func (s *Store) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(bw, "# TSDB bucket=%s retention=%d series=%d samples=%d\n",
		formatFloat(s.cfg.BucketSeconds), s.cfg.Buckets, len(s.series), s.samples)
	for _, key := range s.order {
		sd := s.series[key]
		full := sd.name
		if sd.labels != "" {
			full = sd.name + "{" + sd.labels + "}"
		}
		fmt.Fprintf(bw, "# SERIES %s %s\n", full, sd.kind)
		switch sd.kind {
		case kindRate, kindGauge:
			lo := sd.maxIdx - int64(len(sd.ring)) + 1
			if lo < 0 {
				lo = 0
			}
			for i := lo; i <= sd.maxIdx && sd.maxIdx >= 0; i++ {
				c := &sd.ring[i%int64(len(sd.ring))]
				if c.idx != i {
					continue
				}
				fmt.Fprintf(bw, "%s %s %s\n", full,
					formatFloat(c.v), formatFloat(float64(i)*s.cfg.BucketSeconds))
			}
		case kindHist:
			m := s.mergeHist(sd, 0, float64(sd.maxIdx+1)*s.cfg.BucketSeconds)
			if m == nil {
				continue
			}
			var cum uint64
			for i, b := range s.cfg.HistBounds {
				cum += m.counts[i]
				fmt.Fprintf(bw, "%s_bucket{%sle=%q} %d", sd.name, labelPrefix(sd.labels), formatFloat(b), cum)
				if e := sd.ex[i]; e.Trace != 0 {
					fmt.Fprintf(bw, " # {trace=\"%d\"} %s %s", e.Trace, formatFloat(e.Value), formatFloat(e.T))
				}
				fmt.Fprintln(bw)
			}
			cum += m.counts[len(m.counts)-1]
			fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d", sd.name, labelPrefix(sd.labels), cum)
			if e := sd.ex[len(sd.ex)-1]; e.Trace != 0 {
				fmt.Fprintf(bw, " # {trace=\"%d\"} %s %s", e.Trace, formatFloat(e.Value), formatFloat(e.T))
			}
			fmt.Fprintln(bw)
			fmt.Fprintf(bw, "%s_sum%s %s\n", sd.name, bracketed(sd.labels), formatFloat(m.sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", sd.name, bracketed(sd.labels), m.count)
		}
	}
	return bw.Flush()
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func bracketed(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatFloat mirrors the registry's Prometheus float rendering.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SeriesNames returns the distinct series family names, sorted.
func (s *Store) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	seen := map[string]bool{}
	for _, key := range s.order {
		n := s.series[key].name
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
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
