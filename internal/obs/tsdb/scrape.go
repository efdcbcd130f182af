package tsdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mvml/internal/obs"
)

// Sample is one parsed exposition sample.
type Sample struct {
	Name   string
	Labels []string // alternating kv, sorted by key
	Value  float64
}

// Scrape is one parsed Prometheus text exposition.
type Scrape struct {
	// Types maps family name → "counter" | "gauge" | "histogram" (absent
	// for untyped families).
	Types   map[string]string
	Samples []Sample
}

// ParseText parses Prometheus text exposition format 0.0.4 (the registry's
// own output and what `mvtrace dash -metrics-addr` polls from a /metrics endpoint).
// Unparseable lines are an error — the inputs are machine-generated.
func ParseText(r io.Reader) (*Scrape, error) {
	out := &Scrape{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				out.Types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("tsdb: exposition line %d: %w", lineNo, err)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tsdb: reading exposition: %w", err)
	}
	return out, nil
}

// parseSample parses `name{k="v",...} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		s.Name = line[:brace]
		close := strings.LastIndexByte(line, '}')
		if close < brace {
			return s, fmt.Errorf("unterminated label set")
		}
		labels, err := parseLabels(line[brace+1 : close])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(line[close+1:])
	} else {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return s, fmt.Errorf("missing value")
		}
		s.Name = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	// A timestamp (or exemplar annotation) may trail the value.
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		rest = rest[:sp]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `k="v",k2="v2"` with Go-quoted values.
func parseLabels(in string) ([]string, error) {
	var kv []string
	for len(in) > 0 {
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label segment %q", in)
		}
		key := strings.TrimSpace(in[:eq])
		rest := in[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value after %q", key)
		}
		// Find the closing quote, honouring escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value after %q", key)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value for %q: %w", key, err)
		}
		kv = append(kv, key, val)
		in = strings.TrimPrefix(strings.TrimSpace(rest[end+1:]), ",")
		in = strings.TrimSpace(in)
	}
	// Sort pairs by key for canonical ordering.
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	out := kv[:0]
	for _, p := range ps {
		out = append(out, p.k, p.v)
	}
	return out, nil
}

// Scraper ingests metric expositions into a store at scrape times: gauges
// record their current value, counters (and histogram component series)
// record the delta since the previous scrape — so the store's time buckets
// hold per-interval increments, sparkline- and rate-ready. The first sight
// of a counter establishes its baseline and records nothing.
//
// The store's own mv_tsdb_* self-metrics are skipped to avoid the feedback
// loop of the store measuring itself into itself.
type Scraper struct {
	store *Store

	mu   sync.Mutex
	last map[string]float64 // counter sample identity → last seen value
}

// NewScraper returns a scraper writing into store.
func NewScraper(store *Store) *Scraper {
	return &Scraper{store: store, last: make(map[string]float64)}
}

// ScrapeRegistry captures reg's current exposition at time t.
func (sc *Scraper) ScrapeRegistry(reg *obs.Registry, t float64) error {
	if sc == nil || reg == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return err
	}
	return sc.ScrapeText(&buf, t)
}

// ScrapeText ingests one parsed exposition at time t.
func (sc *Scraper) ScrapeText(r io.Reader, t float64) error {
	if sc == nil {
		return nil
	}
	parsed, err := ParseText(r)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, s := range parsed.Samples {
		if strings.HasPrefix(s.Name, "mv_tsdb_") {
			continue
		}
		typ := parsed.Types[s.Name]
		if typ == "" {
			// Histogram component series (_bucket/_sum/_count) inherit the
			// family's type.
			typ = parsed.Types[strings.TrimSuffix(strings.TrimSuffix(
				strings.TrimSuffix(s.Name, "_bucket"), "_sum"), "_count")]
			if typ == "histogram" {
				typ = "counter" // components accumulate like counters
			}
		}
		switch typ {
		case "counter":
			key := s.Name + "\xff" + canonKV(s.Labels)
			prev, seen := sc.last[key]
			sc.last[key] = s.Value
			if !seen {
				continue
			}
			delta := s.Value - prev
			if delta < 0 {
				delta = s.Value // counter reset: count from zero
			}
			if delta != 0 {
				sc.store.Add(s.Name, t, delta, s.Labels...)
			}
		default: // gauge and untyped
			sc.store.Set(s.Name, t, s.Value, s.Labels...)
		}
	}
	return nil
}
