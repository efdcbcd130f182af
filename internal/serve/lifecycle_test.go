package serve

import (
	"testing"

	"mvml/internal/obs"
)

func TestResizeWorkers(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	if got := s.Workers(); got != 2 {
		t.Fatalf("initial workers %d, want 2", got)
	}

	if err := s.ResizeWorkers(4); err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 4 {
		t.Fatalf("after grow: %d workers, want 4", got)
	}
	versions, _ := s.Status()
	for _, v := range versions {
		if v.Workers != 4 {
			t.Fatalf("version %s reports %d workers, want 4", v.Name, v.Workers)
		}
	}

	if err := s.ResizeWorkers(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 1 {
		t.Fatalf("after shrink: %d workers, want 1", got)
	}

	// The resized pools must still answer with the full ensemble.
	res, err := s.Classify(testImage(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Proposals != 3 || res.Agreeing != 3 {
		t.Fatalf("resized server lost ensemble agreement: %+v", res)
	}

	if err := s.ResizeWorkers(0); err == nil {
		t.Fatal("resize to zero workers accepted")
	}
}

// TestResizeKeepsCompromisedVersionUniform pins the replica-uniformity rule:
// a worker added while its version is compromised must clone the CURRENT
// (faulted) weights, not the pristine safe store — replicas of one version
// must answer identically, and rejuvenation must still heal them all.
func TestResizeKeepsCompromisedVersionUniform(t *testing.T) {
	s := newTestServer(t, testConfig(), nil)
	if err := s.Compromise(0); err != nil {
		t.Fatal(err)
	}
	if err := s.ResizeWorkers(4); err != nil {
		t.Fatal(err)
	}
	// With version 0 compromised (all four replicas identically), every
	// decided request is a clean 2-of-3: the healthy pair always agrees and
	// the voter never sees intra-version disagreement.
	for i := 0; i < 16; i++ {
		res, err := s.Classify(testImage(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Proposals == 3 && res.Agreeing != 2 && res.Agreeing != 3 {
			t.Fatalf("request %d: mixed replica weights? %+v", i, res)
		}
	}
	// Rejuvenation restores the pristine weights on every replica, grown
	// ones included.
	if err := s.Rejuvenate(0, RejuvManual); err != nil {
		t.Fatal(err)
	}
	if !classifyUntil(t, s, 32, func(r Result) bool { return r.Agreeing == 3 }) {
		t.Fatal("full agreement not restored after rejuvenating the resized pool")
	}
}

func TestDrainingFlag(t *testing.T) {
	rt := obs.NewRuntime(0)
	cfg := testConfig()
	cfg.ShardLabel = "shard-x"
	s := newTestServer(t, cfg, rt)

	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	s.SetDraining(true)
	if !s.Draining() {
		t.Fatal("drain flag did not stick")
	}
	// Draining is advisory: the shard keeps answering what reaches it.
	if _, err := s.Classify(testImage(0)); err != nil {
		t.Fatalf("draining server refused a request: %v", err)
	}
	s.SetDraining(false)
	if s.Draining() {
		t.Fatal("drain flag did not clear")
	}
}

// TestShardLabelOnSpans pins the multi-shard attribution contract: with a
// ShardLabel configured, every span the server emits carries the label, so a
// shared sink stays filterable per shard; without one, no span carries it.
func TestShardLabelOnSpans(t *testing.T) {
	for _, label := range []string{"", "shard-7"} {
		rt := obs.NewRuntime(0)
		cfg := testConfig()
		cfg.ShardLabel = label
		s := newTestServer(t, cfg, rt)
		if _, err := s.Classify(testImage(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compromise(0); err != nil {
			t.Fatal(err)
		}
		if err := s.Rejuvenate(0, RejuvManual); err != nil {
			t.Fatal(err)
		}
		recs := rt.Spans().Spans()
		kinds := map[string]bool{}
		for _, r := range recs {
			kinds[r.Kind] = true
		}
		if !kinds["request"] || !kinds["compromise"] || !kinds["rejuvenation"] {
			t.Fatalf("span kinds %v, want request, compromise and rejuvenation among them", kinds)
		}
		for _, r := range recs {
			got, ok := r.Attrs["shard"]
			if label == "" && ok {
				t.Fatalf("unlabelled server emitted shard attr on %s span", r.Kind)
			}
			if label != "" && (!ok || got != label) {
				t.Fatalf("%s span missing shard label: attrs=%v", r.Kind, r.Attrs)
			}
		}
	}
}

// TestCompromiseIsOneEventSpan pins the serving side of events-as-spans: a
// compromise — the one lifecycle op with no interval of its own — publishes
// exactly one zero-duration root span naming the version, and tail sampling
// (here dropping all normal traffic) never drops it.
func TestCompromiseIsOneEventSpan(t *testing.T) {
	rt := obs.NewRuntime(0)
	rt.SetSampler(obs.NewSampler(obs.SampleConfig{Rate: 0.1, Seed: 1}))
	s := newTestServer(t, testConfig(), rt)
	before := rt.Spans().Published()
	if err := s.Compromise(1); err != nil {
		t.Fatal(err)
	}
	if got := rt.Spans().Published() - before; got != 1 {
		t.Fatalf("Compromise published %d spans, want 1", got)
	}
	versions, _ := s.Status()
	var found []obs.SpanRecord
	for _, r := range rt.Spans().Spans() {
		if r.Kind == "compromise" {
			found = append(found, r)
		}
	}
	if len(found) != 1 || found[0].Parent != 0 || found[0].Start != found[0].End ||
		found[0].AttrString("version") != versions[1].Name {
		t.Fatalf("retained compromise spans %+v, want one zero-duration root naming version 1", found)
	}
}
