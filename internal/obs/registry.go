package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType discriminates the three metric families.
type metricType int

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricType(%d)", int(t))
	}
}

// Counter is a monotonically increasing integer metric. A nil *Counter is a
// valid no-op handle.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric. A nil *Gauge is a valid no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one labelled instance of a metric family.
type series struct {
	labels []Label // sorted by key
	key    string  // canonical rendering of labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	typ    metricType
	help   string
	series map[string]*series
}

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// Registry holds metric families and hands out live handles. Handle lookup
// takes a mutex; the returned handles themselves are lock-free atomics, so
// hot paths should resolve handles once and reuse them. A nil *Registry is a
// valid no-op: every getter returns a nil handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// canonLabels validates and canonicalises alternating key/value label pairs.
func canonLabels(kv []string) ([]Label, string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return labels, b.String()
}

// getSeries finds or creates the series for (name, labels), enforcing that a
// metric name keeps a single type for its lifetime. The series' handle is
// allocated under the registry lock (see the typ switch), so concurrent
// lookups of a new series observe exactly one Counter/Gauge/Histogram.
func (r *Registry) getSeries(name string, typ metricType, buckets []float64, kv []string) *series {
	labels, key := canonLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ == 0 {
		f.typ = typ // family pre-created by Help; adopt the first metric type
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: labels, key: key}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = NewHistogram(buckets)
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name and the alternating key/value label
// pairs, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, typeCounter, nil, kv).c
}

// Gauge returns the gauge for name and labels, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, typeGauge, nil, kv).g
}

// Histogram returns the histogram for name and labels, creating it with the
// given bucket upper bounds on first use. Later calls for an existing series
// reuse the original buckets. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getSeries(name, typeHistogram, buckets, kv).h
}

// Help attaches a HELP string to a metric family (created lazily if the
// family does not exist yet, typed on first metric use). No-op on nil.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
		return
	}
	r.families[name] = &family{name: name, help: help, series: make(map[string]*series)}
}

// familyView is a point-in-time copy of a family's structure, safe to walk
// after the registry lock is released (the metric values themselves remain
// live atomics).
type familyView struct {
	name, help string
	typ        metricType
	series     []*series
}

// snapshot copies the families in name order; within a family the series are
// sorted by canonical label key. Exposition and summaries share this
// ordering so output is stable for golden-file tests.
func (r *Registry) snapshot() []familyView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		if len(f.series) == 0 {
			continue // help-only family with no data yet
		}
		v := familyView{name: f.name, help: f.help, typ: f.typ,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			v.series = append(v.series, s)
		}
		sort.Slice(v.series, func(i, j int) bool { return v.series[i].key < v.series[j].key })
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
