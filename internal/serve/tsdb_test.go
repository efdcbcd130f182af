package serve

import (
	"testing"

	"mvml/internal/obs"
	"mvml/internal/obs/tsdb"
)

// TestResponsesUnchangedByTsdbAndSampling extends the determinism guarantee
// to the full telemetry pipeline: a server with tail sampling, the
// time-series store (span ingestion + rule evaluation) and a registry
// scraper all attached must answer bitwise identically to a bare one.
// Telemetry observes; it never decides.
func TestResponsesUnchangedByTsdbAndSampling(t *testing.T) {
	rt := obs.NewRuntime(256)
	rt.SetSampler(obs.NewSampler(obs.SampleConfig{Rate: 0.1, Seed: 42}))
	store := tsdb.New(tsdb.Config{BucketSeconds: 1, Buckets: 120})
	store.Register(rt.Metrics())
	rules := tsdb.NewRules(store, 1, tsdb.DefaultServingRules())
	rules.Register(rt.Metrics())
	rt.Spans().AttachSampled(tsdb.NewIngester(store, rules))
	scraper := tsdb.NewScraper(store)

	bare := newTestServer(t, testConfig(), nil)
	inst := newTestServer(t, testConfig(), rt)

	const n = 48
	for i := 0; i < n; i++ {
		img := testImage(i)
		a, errA := bare.Classify(img)
		b, errB := inst.Classify(img)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("request %d: error mismatch %v vs %v", i, errA, errB)
		}
		if a.Class != b.Class || a.Degraded != b.Degraded ||
			a.Agreeing != b.Agreeing || a.Proposals != b.Proposals {
			t.Fatalf("request %d: answer differs with tsdb+sampling attached: %+v vs %+v", i, a, b)
		}
		if i%8 == 0 {
			if err := scraper.ScrapeRegistry(rt.Metrics(), rt.Spans().Now()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The pipeline actually ran: the sink saw every span, retained a subset,
	// and the store aggregated only the retained ones.
	if rt.Spans().Published() == 0 {
		t.Fatal("no spans published")
	}
	if rt.Spans().Retained() > rt.Spans().Published() {
		t.Fatal("retained more than published")
	}
	horizon := rt.Spans().Now() + 1
	reqs := store.FamilySumOver(tsdb.SeriesRequests, 0, horizon)
	if reqs <= 0 || reqs > n {
		t.Fatalf("store saw %v requests, want (0, %d]", reqs, n)
	}
}
