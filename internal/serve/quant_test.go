package serve

// Serving-side tests for the packed-GEMM weight cache and the int8 inference
// path: the swap-then-infer differential (compromise → answers change;
// rejuvenate → answers restore bitwise) is the regression test for arena
// invalidation — with a stale packed cache a rejuvenated version would keep
// serving its compromised weights.

import (
	"testing"
	"time"
)

// quantConfig is a single-version configuration whose answers expose the
// version directly (no majority to outvote a weight swap), with a small
// calibration dataset for the int8 pools.
func quantConfig() Config {
	cfg := testConfig()
	cfg.Versions = 1
	cfg.Dataset.TrainPerClass = 2
	cfg.Dataset.TestPerClass = 2
	cfg.ProactiveInterval = 0
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

// classifySet returns the served class for a fixed set of images.
func classifySet(t *testing.T, s *Server, n int) []int {
	t.Helper()
	out := make([]int, n)
	for i := range out {
		res, err := s.Classify(testImage(i))
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		out[i] = res.Class
	}
	return out
}

// TestSwapThenInferDifferential drives the full weight-swap lifecycle through
// a serving pool's warmed arena, float and int8: baseline answers, then a
// compromise must change them (the packed weight panels were invalidated and
// repacked from the faulty weights — a stale cache would keep the old
// answers), then rejuvenation must restore the baseline exactly (stale cache
// would keep the faulty answers).
func TestSwapThenInferDifferential(t *testing.T) {
	for _, int8Path := range []bool{false, true} {
		name := map[bool]string{false: "float", true: "int8"}[int8Path]
		t.Run(name, func(t *testing.T) {
			cfg := quantConfig()
			if int8Path {
				cfg.Int8Versions = []int{0}
			}
			s := newTestServer(t, cfg, nil)
			const n = 12
			baseline := classifySet(t, s, n)

			if err := s.Compromise(0); err != nil {
				t.Fatal(err)
			}
			compromised := classifySet(t, s, n)
			changed := false
			for i := range baseline {
				if compromised[i] != baseline[i] {
					changed = true
					break
				}
			}
			if !changed {
				t.Fatal("compromise did not change a single answer — stale packed weights, or fault injection too weak for this test")
			}

			if err := s.Rejuvenate(0, RejuvManual); err != nil {
				t.Fatal(err)
			}
			restored := classifySet(t, s, n)
			for i := range baseline {
				if restored[i] != baseline[i] {
					t.Fatalf("image %d: post-rejuvenation class %d, baseline %d — packed weight cache not invalidated on restore",
						i, restored[i], baseline[i])
				}
			}
		})
	}
}

// TestInt8MixedEnsembleServes serves a three-version ensemble with one
// quantized member: the float majority pins the voted class, so every answer
// must match the float-only server's, and /status must advertise which
// version is quantized.
func TestInt8MixedEnsembleServes(t *testing.T) {
	cfg := testConfig()
	cfg.Dataset.TrainPerClass = 2
	cfg.Dataset.TestPerClass = 2
	cfg.Int8Versions = []int{1}
	s := newTestServer(t, cfg, nil)

	ref := newTestServer(t, testConfig(), nil)
	for i := 0; i < 8; i++ {
		res, err := s.Classify(testImage(i))
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		want, err := ref.Classify(testImage(i))
		if err != nil {
			t.Fatalf("image %d (reference): %v", i, err)
		}
		if res.Class != want.Class {
			t.Fatalf("image %d: mixed ensemble voted %d, float ensemble %d — the two float versions should outvote any int8 flip",
				i, res.Class, want.Class)
		}
	}

	versions, _ := s.Status()
	for _, v := range versions {
		if want := v.Index == 1; v.Quantized != want {
			t.Fatalf("version %d: quantized=%v, want %v", v.Index, v.Quantized, want)
		}
	}
}

// TestInt8ResizeWorkers grows an int8 pool: arenas added late share the
// version's one calibration and must answer like their siblings.
func TestInt8ResizeWorkers(t *testing.T) {
	cfg := quantConfig()
	cfg.Int8Versions = []int{0}
	cfg.WorkersPerVersion = 1
	s := newTestServer(t, cfg, nil)
	baseline := classifySet(t, s, 8)
	if err := s.ResizeWorkers(3); err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
	// All arenas read one weight set and one set of scales, so answers are
	// identical whichever (possibly new) arena serves the batch.
	for round := 0; round < 3; round++ {
		got := classifySet(t, s, 8)
		for i := range baseline {
			if got[i] != baseline[i] {
				t.Fatalf("round %d image %d: class %d, baseline %d — resized pool diverges", round, i, got[i], baseline[i])
			}
		}
	}
}
