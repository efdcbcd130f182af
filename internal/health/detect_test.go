package health

import (
	"math"
	"testing"
)

// noise returns a small deterministic pseudo-random perturbation in
// [-scale, scale] (xorshift-free: a fixed irrational stride keeps the
// sequence aperiodic without any RNG state).
func noise(i int, scale float64) float64 {
	x := math.Mod(float64(i)*0.6180339887498949, 1)
	return (2*x - 1) * scale
}

func TestEWMAFlagsSpike(t *testing.T) {
	det := &EWMA{Lambda: 0.05, Z: 6, Warmup: 32}
	for i := 0; i < 200; i++ {
		if _, anom := det.Observe(0.010 + noise(i, 0.001)); anom {
			t.Fatalf("false positive on stationary sample %d", i)
		}
	}
	z, anom := det.Observe(0.100) // 10x the baseline
	if !anom {
		t.Fatalf("10x latency spike not flagged (z=%.1f)", z)
	}
	if z < 6 {
		t.Fatalf("spike z-score %.1f below threshold yet flagged", z)
	}
}

func TestEWMAWarmupSuppressesFlags(t *testing.T) {
	det := &EWMA{Lambda: 0.05, Z: 2, Warmup: 50}
	for i := 0; i < 50; i++ {
		x := 1.0
		if i%7 == 0 {
			x = 100 // wild warmup samples must not flag
		}
		if _, anom := det.Observe(x); anom {
			t.Fatalf("anomaly flagged during warmup at sample %d", i)
		}
	}
}

func TestEWMAAdaptsToSustainedShift(t *testing.T) {
	det := &EWMA{Lambda: 0.1, Z: 4, Warmup: 16}
	for i := 0; i < 100; i++ {
		det.Observe(1 + noise(i, 0.05))
	}
	// A sustained doubling: flagged at first, absorbed eventually.
	flagged := false
	for i := 0; i < 500; i++ {
		_, anom := det.Observe(2 + noise(i, 0.05))
		if i == 0 && anom {
			flagged = true
		}
		if i > 400 && anom {
			t.Fatalf("shift still flagged after %d absorbing samples", i)
		}
	}
	if !flagged {
		t.Fatal("onset of a 2x sustained shift not flagged")
	}
	if m := det.mean; math.Abs(m-2) > 0.1 {
		t.Fatalf("EW mean %.3f did not converge to the new regime", m)
	}
}

func TestEWMARejectsNonFinite(t *testing.T) {
	det := &EWMA{Lambda: 0.1, Z: 4, Warmup: 2}
	det.Observe(1)
	det.Observe(1)
	if z, anom := det.Observe(math.NaN()); anom || z != 0 {
		t.Fatal("NaN observation flagged or scored")
	}
	if _, anom := det.Observe(math.Inf(1)); anom {
		t.Fatal("Inf observation flagged")
	}
	if m := det.mean; m != 1 {
		t.Fatalf("non-finite samples perturbed the mean: %v", m)
	}
}

func TestCUSUMDetectsShift(t *testing.T) {
	det := &CUSUM{K: 0.5, H: 8, Warmup: 32}
	for i := 0; i < 100; i++ {
		if _, change := det.Observe(4 + noise(i, 0.5)); change {
			t.Fatalf("false change-point on stationary sample %d", i)
		}
	}
	base := det.mu
	if math.Abs(base-4) > 0.2 {
		t.Fatalf("baseline %.3f, want ~4", base)
	}
	// A persistent +3σ shift must be caught within a bounded delay.
	detected := -1
	for i := 0; i < 64; i++ {
		if _, change := det.Observe(6 + noise(i, 0.5)); change {
			detected = i
			break
		}
	}
	if detected < 0 {
		t.Fatal("sustained upward shift never detected")
	}
	if detected > 32 {
		t.Fatalf("detection delay %d samples, want prompt", detected)
	}
}

func TestCUSUMRelearnsAfterDetection(t *testing.T) {
	det := &CUSUM{K: 0.5, H: 8, Warmup: 16}
	for i := 0; i < 32; i++ {
		det.Observe(1 + noise(i, 0.1))
	}
	// Shift up, detect once; the detector re-baselines on the new regime.
	changes := 0
	for i := 0; i < 200; i++ {
		if _, change := det.Observe(5 + noise(i, 0.1)); change {
			changes++
		}
	}
	if changes != 1 {
		t.Fatalf("%d change-points on one sustained shift, want exactly 1", changes)
	}
	// Shift back down: detected again from the re-learned baseline.
	changes = 0
	for i := 0; i < 200; i++ {
		if _, change := det.Observe(1 + noise(i, 0.1)); change {
			changes++
		}
	}
	if changes != 1 {
		t.Fatalf("%d change-points on the return shift, want exactly 1", changes)
	}
}

func TestCUSUMConstantBaseline(t *testing.T) {
	det := &CUSUM{K: 0.5, H: 8, Warmup: 8}
	for i := 0; i < 20; i++ {
		if _, change := det.Observe(3); change {
			t.Fatal("change-point on a constant stream")
		}
	}
	// With a constant baseline any deviation is significant.
	detected := false
	for i := 0; i < 10; i++ {
		if _, change := det.Observe(3.5); change {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("deviation from a constant baseline not detected")
	}
}
