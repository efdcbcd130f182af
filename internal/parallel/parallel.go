// Package parallel is the repository's deterministic fan-out runner: it
// executes n independent replications of a stochastic experiment across a
// bounded worker pool and guarantees that the collected results are
// byte-identical to a sequential run, for any worker count.
//
// The determinism rests on two properties:
//
//   - RNG substreams. Each replication receives its own generator derived
//     via root.Split(label, rep). Split is a pure function of the parent's
//     state — it neither consumes from nor mutates the parent — so the
//     derived stream depends only on (root seed material, label, rep),
//     never on scheduling. Replication bodies may also derive further
//     streams from a captured parent for the same reason; the only
//     forbidden operation is *advancing* a shared generator (Uint64,
//     Float64, ...) from inside a replication.
//
//   - Order-preserving collection. Results land in a slice indexed by
//     replication, so the caller's reduction runs in replication order
//     regardless of completion order. Floating-point accumulation —
//     which is not associative — therefore sums in exactly the sequential
//     order.
//
// Everything stochastic a replication needs must come from its arguments
// (rep, rng); shared mutable state (model instances, accumulators, scratch
// buffers) must be per-replication or per-worker.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mvml/internal/xrand"
)

// Options tunes a Run. The zero value runs on GOMAXPROCS workers.
type Options struct {
	// Workers bounds concurrent replications; <= 0 means GOMAXPROCS. The
	// worker count never changes results, only wall-clock time.
	Workers int
}

// Run executes fn for every replication in [0, n) and returns the results
// in replication order. Each call receives rng = root.Split(label, rep).
//
// Error and panic semantics: the first failure stops the dispatch of new
// replications. Run returns the error of the lowest-indexed replication
// that failed before the pool drained, and re-panics (with the original
// value and stack) if any replication panicked.
func Run[T any](root *xrand.Rand, label string, n int, opt Options, fn func(rep int, rng *xrand.Rand) (T, error)) ([]T, error) {
	if root == nil {
		return nil, errors.New("parallel: nil root rng")
	}
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative replication count %d", n)
	}
	if fn == nil {
		return nil, errors.New("parallel: nil replication function")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}

	if workers == 1 {
		// Sequential fast path: same RNG derivation, same order, no
		// goroutines. This is the reference the parallel path must match.
		for rep := 0; rep < n; rep++ {
			v, err := fn(rep, root.Split(label, uint64(rep)))
			if err != nil {
				return nil, err
			}
			results[rep] = v
		}
		return results, nil
	}

	var (
		next atomic.Int64 // next replication to dispatch
		wg   sync.WaitGroup

		mu          sync.Mutex
		firstErr    error
		firstErrRep = -1
		panicVal    any
		panicStack  []byte
		panicked    bool
	)
	// stop is closed on the first error or panic; workers poll it before
	// claiming the next replication.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	body := func(rep int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if !panicked {
					panicked, panicVal, panicStack = true, r, debug.Stack()
				}
				mu.Unlock()
				halt()
			}
		}()
		v, err := fn(rep, root.Split(label, uint64(rep)))
		if err != nil {
			mu.Lock()
			if firstErrRep == -1 || rep < firstErrRep {
				firstErr, firstErrRep = err, rep
			}
			mu.Unlock()
			halt()
			return
		}
		results[rep] = v
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := int(next.Add(1)) - 1
				if rep >= n {
					return
				}
				body(rep)
			}
		}()
	}
	wg.Wait()

	if panicked {
		panic(fmt.Sprintf("parallel: replication panicked: %v\n%s", panicVal, panicStack))
	}
	if firstErrRep != -1 {
		return nil, firstErr
	}
	return results, nil
}
