package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mvml/internal/stats"
	"mvml/internal/xrand"
)

// answer is what the program under test replied to one request.
type answer struct {
	class     int
	degraded  bool
	proposals int
	shard     int // index of the answering shard; 0 outside the fleet
}

// outcome classifies one finished op.
type outcome uint8

const (
	opOK       outcome = iota // answered and equal to the oracle
	opRejected                // shed explicitly (queue full, 429)
	opFailed                  // error, timeout or missing reply
	opWrong                   // answered, but not what the oracle allows
	opExempt                  // answered by a compromised shard: feeds core.masked_share only
)

// opRecord is one op as the generator saw it. start is when the op was due
// (open loop) or issued (closed loop), both relative to the phase start.
type opRecord struct {
	start, end time.Duration
	lag        time.Duration // open loop: how late the request actually fired
	img        int
	ans        answer
	out        outcome
}

func (r opRecord) latency() time.Duration { return r.end - r.start }

// answered reports whether the op got exactly one error-free reply that the
// oracle allows (or exempts).
func (r opRecord) answered() bool { return r.out == opOK || r.out == opExempt }

// opFunc performs one op on pool image img for the given client and reports
// the reply and a provisional outcome (opOK for any reply; the workload's
// judge settles opOK against the oracle afterwards, off the clock).
type opFunc func(client, img int) (answer, outcome)

// runClosed is the closed-loop generator: each client issues its next op only
// when the previous one returned, for at least d. The clients share one
// seeded permutation of the pool and walk it cyclically, so every image is
// asked equally often and degraded_share does not depend on the draw. It
// returns the records in start order and the wall time until the last client
// finished.
func runClosed(clients int, d time.Duration, rng *xrand.Rand, poolN int, op opFunc) ([]opRecord, time.Duration) {
	order := rng.Perm(poolN)
	var next atomic.Int64
	per := make([][]opRecord, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs := make([]opRecord, 0, 1024)
			for {
				start := time.Since(t0)
				if start >= d {
					break
				}
				img := order[int(next.Add(1)-1)%poolN]
				ans, out := op(c, img)
				recs = append(recs, opRecord{start: start, end: time.Since(t0), img: img, ans: ans, out: out})
			}
			per[c] = recs
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []opRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all, wall
}

// arrival is one entry of an open-loop schedule.
type arrival struct {
	due time.Duration
	img int
}

// openSchedule precomputes the due time and pool image of every request of
// an open loop at the given rate over d. Independent users arrive at random,
// so gaps are irregular; but every window of d/numWindows holds exactly its
// share of the requests (sorted uniform offsets within the window, which is
// how a Poisson process looks once its count is known), so that the offered
// load of a window does not change with the seed. Images come from one seeded
// permutation of the pool walked cyclically, as in runClosed. The same rng
// state gives the same schedule.
func openSchedule(rng *xrand.Rand, rate float64, d time.Duration, poolN int) []arrival {
	offsets, order := rng.Split("offsets", 0), rng.Split("images", 0).Perm(poolN)
	window := d / numWindows
	perWindow := int(math.Round(rate * window.Seconds()))
	out := make([]arrival, 0, perWindow*numWindows)
	for w := 0; w < numWindows; w++ {
		dues := make([]time.Duration, perWindow)
		for i := range dues {
			dues[i] = time.Duration(w)*window + time.Duration(offsets.Float64()*float64(window))
		}
		sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
		for _, due := range dues {
			out = append(out, arrival{due: due, img: order[len(out)%poolN]})
		}
	}
	return out
}

// replyGrace is how long the open loop waits after the schedule's end for
// outstanding replies before counting them missing.
const replyGrace = 5 * time.Second

// runOpen is the open-loop generator: every request fires at its due time
// whether or not earlier ones have returned, each on its own goroutine, and
// its latency counts from the due time so a stall charges everyone queued
// behind it. Replies still missing replyGrace after the last due time are
// recorded as failed.
func runOpen(sched []arrival, d time.Duration, op opFunc) ([]opRecord, time.Duration) {
	recs := make([]opRecord, len(sched))
	finished := make(chan int, len(sched)) // one slot per request: sends never block
	t0 := time.Now()
	for i, a := range sched {
		if wait := a.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		go func(i int, a arrival, fired time.Duration) {
			ans, out := op(i, a.img)
			recs[i] = opRecord{start: a.due, end: time.Since(t0), lag: fired - a.due, img: a.img, ans: ans, out: out}
			finished <- i
		}(i, a, time.Since(t0))
	}
	if rest := d - time.Since(t0); rest > 0 {
		time.Sleep(rest)
	}
	// A record is read only after its index arrived on finished; a straggler
	// may still be writing recs[i], so missing replies are reported from the
	// schedule instead.
	out := make([]opRecord, len(sched))
	for i, a := range sched {
		out[i] = opRecord{start: a.due, end: a.due + replyGrace, img: a.img, out: opFailed}
	}
	grace := time.NewTimer(replyGrace)
	defer grace.Stop()
	for got := 0; got < len(sched); got++ {
		select {
		case i := <-finished:
			out[i] = recs[i]
		case <-grace.C:
			return out, time.Since(t0)
		}
	}
	return out, time.Since(t0)
}

// counts is the generator's tally for one phase.
type counts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"` // answered and correct, degraded ones included
	Degraded  int `json:"degraded"`
	// Full counts the answers voted by the whole healthy ensemble (every
	// version proposed, not exempt), FullDegraded those of them flagged
	// degraded: the two that depend on the weights alone.
	Full         int `json:"full"`
	FullDegraded int `json:"full_degraded"`
	Rejected     int `json:"rejected"`
	Failed       int `json:"failed"`
	Wrong        int `json:"wrong"`
	Exempt       int `json:"exempt"` // answered by the compromised shard inside its window
}

// answered is every op that got exactly one error-free reply.
func (c counts) answered() int { return c.OK + c.Exempt }

// bad is every op that counts against failed_share.
func (c counts) bad() int { return c.Rejected + c.Failed + c.Wrong }

// tally counts the outcomes of one phase served by ensembles of the given
// number of versions.
func tally(recs []opRecord, versions int) counts {
	c := counts{Attempted: len(recs)}
	for _, r := range recs {
		if r.out == opOK && r.ans.proposals == versions {
			c.Full++
			if r.ans.degraded {
				c.FullDegraded++
			}
		}
		switch r.out {
		case opOK:
			c.OK++
		case opExempt:
			c.Exempt++
		case opRejected:
			c.Rejected++
		case opFailed:
			c.Failed++
		case opWrong:
			c.Wrong++
		}
		if r.answered() && r.ans.degraded {
			c.Degraded++
		}
	}
	return c
}

// minTail is how many samples must lie beyond a percentile before it is
// reported; with fewer the estimate is one or two outliers, not a tail.
const minTail = 10

// nearestRank returns the nearest-rank q-quantile of sorted (ascending), or
// NaN when fewer than minTail samples lie beyond it.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.9·100 is a hair above 90 in floating point
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return math.NaN()
	}
	return sorted[rank-1]
}

// median is the plain median of xs (NaN when empty); unlike nearestRank it
// has no sample floor, because it summarises windows and repeats, not a tail.
func median(xs []float64) float64 {
	m, err := stats.Quantile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return m
}

const numWindows = 5

// windowQuantile splits the phase into numWindows equal windows by op start
// time, takes each window's nearest-rank q-quantile over the latencies of
// answered ops, and returns the median across windows: one slow window (a GC
// cycle, a scripted lifecycle event) moves the result far less than it would
// move a whole-phase percentile. NaN when any window is too thin.
func windowQuantile(recs []opRecord, d time.Duration, q float64) float64 {
	wins := make([][]float64, numWindows)
	for _, r := range recs {
		if !r.answered() {
			continue
		}
		w := int(int64(r.start) * numWindows / int64(d))
		if w >= numWindows {
			w = numWindows - 1
		}
		wins[w] = append(wins[w], float64(r.latency())/float64(time.Millisecond))
	}
	per := make([]float64, numWindows)
	for i, w := range wins {
		sort.Float64s(w)
		per[i] = nearestRank(w, q)
		if math.IsNaN(per[i]) {
			return math.NaN()
		}
	}
	return median(per)
}

// windowAnswered counts, per window, the answered ops that completed in it.
func windowAnswered(recs []opRecord, d time.Duration) (n [numWindows]int) {
	for _, r := range recs {
		if r.answered() && r.end < d {
			n[int64(r.end)*numWindows/int64(d)]++
		}
	}
	return n
}

// sampleCPU reads the process's CPU time at the start of the phase and at
// the end of each of its windows, and delivers the per-window differences.
// It must be started immediately before the generator.
func sampleCPU(d time.Duration) <-chan [numWindows]float64 {
	out := make(chan [numWindows]float64, 1)
	t0, last := time.Now(), cpuSeconds()
	go func() {
		var per [numWindows]float64
		for w := range per {
			time.Sleep(time.Until(t0.Add(d * time.Duration(w+1) / numWindows)))
			now := cpuSeconds()
			per[w], last = now-last, now
		}
		out <- per
	}()
	return out
}

// stallTick is how long the stall watch asks to sleep at a time.
const stallTick = 5 * time.Millisecond

// watchStalls measures how long the whole process was held up during a
// phase: a goroutine that sleeps stallTick at a time records the longest it
// overslept. The program under test cannot hold it up for long (Go preempts a
// running goroutine after 10 ms), so a long oversleep is the host: a frozen
// VM, stolen CPU. The returned function stops the watch and reports the worst.
func watchStalls() (stop func() time.Duration) {
	done, worst := make(chan struct{}), make(chan time.Duration)
	go func() {
		var w time.Duration
		for last := time.Now(); ; {
			select {
			case <-done:
				worst <- w
				return
			default:
			}
			time.Sleep(stallTick)
			now := time.Now()
			if over := now.Sub(last) - stallTick; over > w {
				w = over
			}
			last = now
		}
	}()
	return func() time.Duration {
		close(done)
		return <-worst
	}
}

// answeredLatenciesMS returns the sorted latencies of answered ops.
func answeredLatenciesMS(recs []opRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.answered() {
			out = append(out, float64(r.latency())/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// schedLagP99MS is the p99 of how late the generator fired its requests
// (all zero for a closed loop).
func schedLagP99MS(recs []opRecord) float64 {
	lags := make([]float64, len(recs))
	for i, r := range recs {
		lags[i] = float64(r.lag) / float64(time.Millisecond)
	}
	sort.Float64s(lags)
	return nearestRank(lags, 0.99)
}

// rusage reads the process's user+system CPU seconds and its high-water
// resident set in MiB (Linux reports KiB).
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	cpu, _ := rusage()
	return cpu
}
