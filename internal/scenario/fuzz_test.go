package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mvml/internal/xrand"
)

// FuzzScenarioRoundTrip: any byte string that decodes into a corpus entry
// must re-encode canonically — encode∘decode∘encode is byte-identical — so
// there is exactly one on-disk form per entry and corpus diffs are always
// semantic. The banked corpus files seed it.
func FuzzScenarioRoundTrip(f *testing.F) {
	sp := DefaultSpace()
	for seed := uint64(0); seed < 5; seed++ {
		f.Add(mustEncodeEntry(f, Entry{Scenario: Sample(sp, xrand.New(seed))}))
	}
	f.Add(mustEncodeEntry(f, Entry{Scenario: sampleScenarioForFuzz(), Note: "fuzz seed"}))
	if names, err := filepath.Glob(filepath.Join(corpusDir, "*.json")); err == nil {
		for _, name := range names {
			if data, err := os.ReadFile(name); err == nil {
				f.Add(data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return // invalid inputs only need to be rejected cleanly
		}
		b1, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("decoded entry failed to encode: %v", err)
		}
		e2, err := DecodeEntry(b1)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v\n%s", err, b1)
		}
		b2, err := EncodeEntry(e2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("canonical encoding not a fixpoint:\n%s\nvs\n%s", b1, b2)
		}
	})
}

func mustEncodeEntry(tb testing.TB, e Entry) []byte {
	tb.Helper()
	data, err := EncodeEntry(e)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// sampleScenarioForFuzz is a hand-built every-feature scenario seed.
func sampleScenarioForFuzz() Scenario {
	return Scenario{
		Version: DSLVersion, Name: "fuzz-seed", Route: 5, Seed: 1,
		DT: 0.1, MaxFrames: 50, Cruise: 10,
		NPCs:       []NPCSpec{{StartFrac: 0.5, Radius: 1, Phases: []PhaseSpec{{Until: 3, Speed: 2}}}},
		Occlusions: []OcclusionSpec{{S0: 0.2, S1: 0.3, HalfWidth: 2, T0: 1, T1: 2}},
		Perception: PerceptionSpec{
			Versions: 2, Seed: 2, Photometric: 0.1, MissScale: 1,
			NoiseScale: 1, Ghost: 0.1, CommonMode: 0.5, MatchRadius: 2,
		},
		Faults: []FaultEvent{{Time: 1, Version: 1, Action: ActionCompromise, Kind: "stuck-at-zero"}},
	}
}

// FuzzScenarioRun: every sampled scenario — the falsifier's entire input
// space — evaluates without error or panic, within its frame bound. The
// frame budget is clamped small so the fuzzer spends its time on coverage,
// not on long simulations.
func FuzzScenarioRun(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sp := DefaultSpace()
		sp.MaxFrames = 120
		s := Sample(sp, xrand.New(seed))
		if err := s.Validate(); err != nil {
			t.Fatalf("sampler produced an invalid scenario: %v\n%s", err, s.MustEncode())
		}
		m, err := Evaluate(s)
		if err != nil {
			t.Fatalf("valid scenario failed to run: %v\n%s", err, s.MustEncode())
		}
		if m.TotalFrames < 1 || m.TotalFrames > sp.MaxFrames {
			t.Fatalf("run length %d outside 1..%d", m.TotalFrames, sp.MaxFrames)
		}
	})
}
