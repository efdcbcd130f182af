package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Entry is one corpus record: a minimized violating scenario plus the exact
// metrics its evaluation must reproduce.
type Entry struct {
	Scenario Scenario `json:"scenario"`
	Metrics  Metrics  `json:"metrics"`
	// Note optionally records provenance (search seed, date, what broke).
	Note string `json:"note,omitempty"`
}

// Fingerprint identifies a scenario by the first 12 hex digits of the
// SHA-256 of its canonical bytes. Corpus filenames embed it, and search
// deduplication keys on it, so "the same counterexample" means "the same
// canonical scenario", nothing fuzzier.
func Fingerprint(s Scenario) string {
	sum := sha256.Sum256(s.MustEncode())
	return hex.EncodeToString(sum[:6])
}

// EncodeEntry renders the canonical corpus file form.
func EncodeEntry(e Entry) ([]byte, error) {
	if err := e.Scenario.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeEntry parses a corpus file strictly (unknown fields rejected) and
// validates the embedded scenario.
func DecodeEntry(data []byte) (Entry, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e Entry
	if err := dec.Decode(&e); err != nil {
		return Entry{}, fmt.Errorf("scenario: corpus entry: %w", err)
	}
	if dec.More() {
		return Entry{}, fmt.Errorf("scenario: corpus entry: trailing data after document")
	}
	if err := e.Scenario.Validate(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// entryFilename is the canonical corpus filename for a scenario.
func entryFilename(s Scenario) string {
	return "ce-" + Fingerprint(s) + ".json"
}

// LoadCorpus reads every *.json under dir in filename order. A missing
// directory is an empty corpus, not an error, so fresh checkouts and tools
// pointed at a new directory behave.
func LoadCorpus(dir string) ([]Entry, []string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	entries := make([]Entry, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		e, err := DecodeEntry(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", filepath.Base(name), err)
		}
		entries = append(entries, e)
	}
	return entries, names, nil
}

// WriteEntry stores an entry under its canonical filename, creating the
// directory as needed, and returns the path. Writing an entry whose scenario
// is already present overwrites it (the fingerprint guarantees the scenario
// half is identical; the metrics/note may be refreshed).
func WriteEntry(dir string, e Entry) (string, error) {
	data, err := EncodeEntry(e)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, entryFilename(e.Scenario))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// CorpusFingerprints returns the set of scenario fingerprints present in a
// loaded corpus, for rediscovery checks (the CI smoke asserts a short search
// still finds at least one known corpus member).
func CorpusFingerprints(entries []Entry) map[string]bool {
	fps := make(map[string]bool, len(entries))
	for _, e := range entries {
		fps[Fingerprint(e.Scenario)] = true
	}
	return fps
}

// DescribeMetrics is the one-line human summary used by tooling output.
func DescribeMetrics(m Metrics) string {
	var b strings.Builder
	if m.Collided {
		fmt.Fprintf(&b, "collision@frame%d", m.FirstCollisionFrame)
	} else {
		fmt.Fprintf(&b, "ttc=%.3gs", m.MinTTC)
	}
	fmt.Fprintf(&b, " margin=%.3g frames=%d", m.Margin, m.TotalFrames)
	if m.MissedObstacleFrames > 0 {
		fmt.Fprintf(&b, " missed=%d", m.MissedObstacleFrames)
	}
	if m.SkippedFrames > 0 {
		fmt.Fprintf(&b, " skips=%d", m.SkippedFrames)
	}
	return b.String()
}
