package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mvml/internal/xrand"
)

// drawSome consumes a few values from the replication's own stream and
// returns a digest of them, emulating a stochastic experiment body.
func drawSome(rep int, rng *xrand.Rand) (uint64, error) {
	var h uint64
	for i := 0; i < 8; i++ {
		h = h*31 + rng.Uint64()
	}
	return h + uint64(rep), nil
}

func TestRunMatchesSequentialForAnyWorkerCount(t *testing.T) {
	const n = 64
	want, err := Run(xrand.New(7), "rep", n, Options{Workers: 1}, drawSome)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 4, 8, 64, 100} {
		got, err := Run(xrand.New(7), "rep", n, Options{Workers: workers}, drawSome)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from sequential", workers)
		}
	}
}

func TestRunSharedParentSplitsAreRaceFreeAndDeterministic(t *testing.T) {
	// Replication bodies may derive extra streams from a captured parent;
	// Split must be a pure read. Run under -race this doubles as the
	// shared-parent race test.
	root := xrand.New(42)
	fn := func(rep int, _ *xrand.Rand) (uint64, error) {
		a := root.Split("sys", uint64(rep*100)).Uint64()
		b := root.Split("sim", uint64(rep*100)).Uint64()
		return a ^ b, nil
	}
	want, err := Run(root, "ignored", 32, Options{Workers: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(root, "ignored", 32, Options{Workers: 8}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("captured-parent splits are schedule-dependent")
	}
}

func TestRunResultsLandInReplicationOrder(t *testing.T) {
	got, err := Run(xrand.New(1), "rep", 100, Options{Workers: 7},
		func(rep int, _ *xrand.Rand) (int, error) { return rep * rep, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(xrand.New(1), "rep", 50, Options{Workers: workers},
			func(rep int, _ *xrand.Rand) (int, error) {
				if rep%13 == 7 {
					return 0, fmt.Errorf("rep %d: %w", rep, boom)
				}
				return rep, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestRunSequentialErrorIsFirstFailingRep(t *testing.T) {
	_, err := Run(xrand.New(1), "rep", 50, Options{Workers: 1},
		func(rep int, _ *xrand.Rand) (int, error) {
			if rep >= 10 {
				return 0, fmt.Errorf("rep %d failed", rep)
			}
			return rep, nil
		})
	if err == nil || err.Error() != "rep 10 failed" {
		t.Fatalf("err = %v, want rep 10 failed", err)
	}
}

func TestRunErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	_, err := Run(xrand.New(1), "rep", 10_000, Options{Workers: 4},
		func(rep int, _ *xrand.Rand) (int, error) {
			ran.Add(1)
			return 0, errors.New("immediate failure")
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d replications ran after the first failure", n)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers > 1 && !strings.Contains(fmt.Sprint(r), "kaboom") {
					t.Fatalf("workers=%d: panic value lost: %v", workers, r)
				}
			}()
			_, _ = Run(xrand.New(1), "rep", 20, Options{Workers: workers},
				func(rep int, _ *xrand.Rand) (int, error) {
					if rep == 3 {
						panic("kaboom")
					}
					return rep, nil
				})
		}()
	}
}

func TestRunEdgeCases(t *testing.T) {
	if _, err := Run[int](nil, "rep", 1, Options{}, func(int, *xrand.Rand) (int, error) { return 0, nil }); err == nil {
		t.Fatal("nil root accepted")
	}
	if _, err := Run[int](xrand.New(1), "rep", -1, Options{}, func(int, *xrand.Rand) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := Run[int](xrand.New(1), "rep", 1, Options{}, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	got, err := Run(xrand.New(1), "rep", 0, Options{Workers: 4},
		func(rep int, _ *xrand.Rand) (int, error) { return rep, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
}
