package health

import (
	"math"
	"testing"
)

func testObjective() Objective {
	return Objective{
		Name: "test", Target: 0.9, // 10% error budget
		Window: 100, ShortWindow: 5, LongWindow: 30, BurnAlert: 2,
	}
}

func TestSLOTrackerBudget(t *testing.T) {
	tr := newSLOTracker(testObjective())
	// 90 good + 10 bad over the window: budget exactly spent.
	for i := 0; i < 100; i++ {
		tr.record(float64(i), i%10 == 0)
	}
	s := tr.status()
	if s.Good != 90 || s.Bad != 10 {
		t.Fatalf("counts %d/%d, want 90/10", s.Good, s.Bad)
	}
	if math.Abs(s.BudgetRemaining) > 1e-9 {
		t.Fatalf("budget remaining %v, want 0 (exactly spent)", s.BudgetRemaining)
	}
}

func TestSLOTrackerCleanStream(t *testing.T) {
	tr := newSLOTracker(testObjective())
	for i := 0; i < 50; i++ {
		tr.record(float64(i), false)
	}
	s := tr.status()
	if s.BudgetRemaining != 1 {
		t.Fatalf("clean stream budget %v, want 1", s.BudgetRemaining)
	}
	if s.BurnShort != 0 || s.BurnLong != 0 || s.Alerting || s.Alerts != 0 {
		t.Fatalf("clean stream alerting: %+v", s)
	}
}

func TestSLOTrackerBurnRateAndAlert(t *testing.T) {
	tr := newSLOTracker(testObjective())
	// Healthy baseline, long enough to cover the long window.
	for i := 0; i < 60; i++ {
		tr.record(float64(i), false)
	}
	if tr.alerting {
		t.Fatal("alerting on the clean baseline")
	}
	// A short spike alone must not alert (long window still healthy).
	for i := 60; i < 63; i++ {
		tr.record(float64(i), true)
	}
	if tr.alerting {
		t.Fatal("multi-window rule alerted on a brief spike")
	}
	// A sustained 100% error rate alerts once both windows burn.
	for i := 63; i < 95; i++ {
		tr.record(float64(i), true)
	}
	s := tr.status()
	if !s.Alerting {
		t.Fatalf("sustained burn not alerting: %+v", s)
	}
	if s.Alerts != 1 {
		t.Fatalf("rising edges %d, want 1", s.Alerts)
	}
	if s.BurnShort < s.Objective.BurnAlert || s.BurnLong < s.Objective.BurnAlert {
		t.Fatalf("burn rates %.2f/%.2f below the alert threshold", s.BurnShort, s.BurnLong)
	}
	// Recovery clears the alert and a second burn is a second edge.
	for i := 95; i < 160; i++ {
		tr.record(float64(i), false)
	}
	if tr.alerting {
		t.Fatal("still alerting after a long clean stretch")
	}
	for i := 160; i < 200; i++ {
		tr.record(float64(i), true)
	}
	if got := tr.status().Alerts; got != 2 {
		t.Fatalf("rising edges %d after a second burn, want 2", got)
	}
}

func TestSLOTrackerRingEviction(t *testing.T) {
	tr := newSLOTracker(testObjective())
	// Errors early on, then a window-length of clean traffic: the stale
	// buckets must age out of the budget window.
	for i := 0; i < 20; i++ {
		tr.record(float64(i), true)
	}
	for i := 20; i < 250; i++ {
		tr.record(float64(i), false)
	}
	s := tr.status()
	if s.BudgetRemaining != 1 {
		t.Fatalf("budget %v after errors aged out, want 1", s.BudgetRemaining)
	}
	// Totals are lifetime counters, unaffected by eviction.
	if s.Bad != 20 {
		t.Fatalf("lifetime bad %d, want 20", s.Bad)
	}
}

func TestSLOTrackerEmptyWindow(t *testing.T) {
	tr := newSLOTracker(testObjective())
	if got := tr.budgetRemaining(0); got != 1 {
		t.Fatalf("empty tracker budget %v, want 1", got)
	}
	if got := tr.burnRate(0, 5); got != 0 {
		t.Fatalf("empty tracker burn %v, want 0", got)
	}
}
