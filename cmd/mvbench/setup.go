package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mvml/internal/core"
	"mvml/internal/experiments"
	"mvml/internal/gateway"
	"mvml/internal/nn"
	"mvml/internal/serve"
	"mvml/internal/signs"
	"mvml/internal/xrand"
)

// profile fixes what the shared set-up builds. The benchmark uses
// fullProfile; the package's tests swap in one-layer untrained nets so that
// tier-1 stays fast.
type profile struct {
	dataset     signs.Config
	trainEpochs int
	// versions builds version v's architecture; every served replica, the
	// oracle and the paper_eval clones come from the same constructors.
	versions []func(r *xrand.Rand) (*nn.Network, error)
	// injectCount overrides how many weights one Compromise perturbs (0 keeps
	// serve's default of one, which the paper's models need; a one-layer test
	// net needs many before an argmax flips).
	injectCount int
}

// fullProfile is the CI demo recipe: the three small architectures, three
// epochs on 24 rendered signs per class.
func fullProfile(seed uint64) profile {
	ds := signs.DefaultConfig()
	ds.TrainPerClass = 24
	ds.Seed = seed
	p := profile{dataset: ds, trainEpochs: 3}
	for _, name := range nn.AllModels() {
		name := name
		p.versions = append(p.versions, func(r *xrand.Rand) (*nn.Network, error) {
			return nn.NewModel(name, signs.NumClasses, r)
		})
	}
	return p
}

// fixture is the process-shared set-up: dataset, trained weights, request
// pool and answer oracle. Nothing in it is mutated after newFixture returns,
// so workloads may read it from any goroutine; networks are never shared —
// every consumer builds its own through network().
type fixture struct {
	seed    uint64
	prof    profile
	train   []nn.Sample
	pool    []nn.Sample // the labelled test split: the request pool
	keys    []string    // gateway route key of each pool image
	names   []string    // version names, in version order
	weights [][][]float32
	oracle  *oracle
	// paramLayers is the smallest parameterised-layer count of any version.
	paramLayers int

	generateS float64
	trainS    float64
	oracleS   float64
}

// injectLayer is the parameterised layer faults go into: the paper's layer
// 1, or the last one of a shallower (test) network.
func (f *fixture) injectLayer() int {
	if f.paramLayers < 2 {
		return f.paramLayers - 1
	}
	return 1
}

// sharedS is the set-up every workload pays before its own build.
func (f *fixture) sharedS() float64 { return f.generateS + f.trainS + f.oracleS }

// newFixture generates the dataset, trains every version and computes the
// oracle. Versions train concurrently on at most nproc goroutines, heaviest
// first, which is the shortest schedule on a 2-core machine.
func newFixture(seed uint64, prof profile) (*fixture, error) {
	f := &fixture{seed: seed, prof: prof}
	t0 := time.Now()
	ds, err := signs.Generate(prof.dataset)
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	f.train, f.pool = ds.Train, ds.Test
	if len(f.pool) == 0 {
		return nil, fmt.Errorf("dataset has an empty test split")
	}
	f.generateS = time.Since(t0).Seconds()

	t1 := time.Now()
	root := xrand.New(seed)
	nets := make([]*nn.Network, len(prof.versions))
	for v, build := range prof.versions {
		if nets[v], err = build(root.Split("model", uint64(v))); err != nil {
			return nil, fmt.Errorf("building version %d: %w", v, err)
		}
		f.names = append(f.names, nets[v].Name)
		if n := len(nets[v].ParamLayers()); v == 0 || n < f.paramLayers {
			f.paramLayers = n
		}
	}
	if prof.trainEpochs > 0 {
		tcfg := experiments.QuickTableIIConfig()
		tcfg.Epochs = prof.trainEpochs
		if err := eachLimited(len(nets), func(v int) error {
			return experiments.Train(nets[v], f.train, tcfg, root.Split("train", uint64(v)))
		}); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
	}
	for _, net := range nets {
		f.weights = append(f.weights, net.CloneWeights())
	}
	f.trainS = time.Since(t1).Seconds()

	t2 := time.Now()
	preds := make([][]int, len(nets))
	if err := eachLimited(len(nets), func(v int) error {
		preds[v] = make([]int, len(f.pool))
		for i, s := range f.pool {
			p, err := nets[v].Predict(s.X)
			if err != nil {
				return err
			}
			preds[v][i] = p
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	f.oracle = newOracle(preds)
	f.keys = make([]string, len(f.pool))
	for i, s := range f.pool {
		f.keys[i] = gateway.RouteKey(&serve.ClassifyRequest{Image: s.X.Data})
	}
	f.oracleS = time.Since(t2).Seconds()
	return f, nil
}

// eachLimited runs fn(0..n-1) on at most GOMAXPROCS goroutines at a time and
// returns every error joined.
func eachLimited(n int, fn func(i int) error) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
			<-sem
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// network returns a fresh network of version v carrying the trained weights.
// Its signature is serve.Config.NewNetwork's, so serve.New never trains.
func (f *fixture) network(v int, _ *xrand.Rand) (*nn.Network, error) {
	v %= len(f.prof.versions)
	net, err := f.prof.versions[v](xrand.New(f.seed).Split("model", uint64(v)))
	if err != nil {
		return nil, err
	}
	if err := net.RestoreWeights(f.weights[v]); err != nil {
		return nil, err
	}
	return net, nil
}

// oracle holds every version's prediction for every pool image and derives
// the answer the service owes from them: the majority vote of the versions
// that took part, or — when the voter skips — the first participant's
// proposal flagged degraded, exactly the rule serve documents.
type oracle struct {
	preds    [][]int // [version][image]
	versions int
	voter    *core.MajorityVoter[int]
	subsets  [][][]int // subsets[k] lists the k-element version subsets
}

func newOracle(preds [][]int) *oracle {
	o := &oracle{preds: preds, versions: len(preds), voter: core.NewEqualityVoter[int]()}
	o.subsets = make([][][]int, o.versions+1)
	for mask := 1; mask < 1<<o.versions; mask++ {
		var s []int
		for v := 0; v < o.versions; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, v)
			}
		}
		o.subsets[len(s)] = append(o.subsets[len(s)], s)
	}
	return o
}

// expect returns the answer owed for image img when exactly the versions in
// subset answered.
func (o *oracle) expect(img int, subset []int) (class int, degraded bool) {
	props := make([]core.Proposal[int], len(subset))
	for i, v := range subset {
		props[i] = core.Proposal[int]{Module: fmt.Sprint(v), Value: o.preds[v][img]}
	}
	dec := o.voter.Vote(props)
	if dec.Skipped {
		return props[0].Value, true
	}
	return dec.Value, len(subset) < o.versions
}

// reference is the answer of the full healthy ensemble.
func (o *oracle) reference(img int) (class int, degraded bool) {
	return o.expect(img, o.subsets[o.versions][0])
}

// matches reports whether a served answer is one the healthy ensemble could
// have given: with every version voting it must equal the reference in class
// and flag; with fewer (a version was quiesced for rejuvenation or resizing)
// it must be flagged degraded and equal the vote of some subset of that size.
func (o *oracle) matches(img int, a answer) bool {
	if a.proposals < 1 || a.proposals > o.versions {
		return false
	}
	for _, s := range o.subsets[a.proposals] {
		if class, degraded := o.expect(img, s); class == a.class && degraded == a.degraded {
			return true
		}
	}
	return false
}
