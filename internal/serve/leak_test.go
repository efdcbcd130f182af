package serve

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine of serve outlives its tests: a
// server nobody closed, or a forward that Close did not wait for.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := serveGoroutines(time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d serve goroutines outlived the tests:\n\n%s\n",
				len(leaked), bytes.Join(leaked, []byte("\n\n")))
			code = 1
		}
	}
	os.Exit(code)
}

// serveGoroutines returns the stacks of the other goroutines that run a
// function of this package, retrying until none is left or wait has passed
// (a goroutine may still be on its way out).
func serveGoroutines(wait time.Duration) [][]byte {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		// The calling goroutine's stack comes first; skip it.
		stacks := bytes.Split(buf, []byte("\n\n"))[1:]
		var leaked [][]byte
		for _, st := range stacks {
			if bytes.Contains(st, []byte("mvml/internal/serve.")) {
				leaked = append(leaked, st)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
