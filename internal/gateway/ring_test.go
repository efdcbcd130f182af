package gateway

import (
	"fmt"
	"reflect"
	"testing"
)

func ringOf(t *testing.T, n int) *Ring {
	t.Helper()
	r := NewRing(0)
	for i := 0; i < n; i++ {
		if err := r.Add(fmt.Sprintf("shard-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("class:%d:%d", i%43, i)
	}
	return keys
}

// TestRingUniformity pins the distribution quality the virtual nodes buy:
// across 4, 8 and 16 shards every shard's share of a large key population
// stays within a constant factor of the ideal 1/N.
func TestRingUniformity(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{4, 8, 16} {
		r := ringOf(t, n)
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.Lookup(k)] = counts[r.Lookup(k)] + 1
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d shards received keys", n, len(counts))
		}
		ideal := float64(len(keys)) / float64(n)
		for shard, c := range counts {
			ratio := float64(c) / ideal
			if ratio < 0.5 || ratio > 1.7 {
				t.Errorf("n=%d: %s owns %.2fx the ideal share (%d keys)", n, shard, ratio, c)
			}
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing property: adding a
// shard to an N-shard ring remaps only keys that move TO the new shard, and
// about K/(N+1) of them.
func TestRingMinimalMovement(t *testing.T) {
	const n = 8
	keys := testKeys(10000)
	r := ringOf(t, n)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}

	if err := r.Add("shard-new"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if after == before[k] {
			continue
		}
		moved++
		if after != "shard-new" {
			t.Fatalf("key %q moved %s -> %s, not to the added shard", k, before[k], after)
		}
	}
	ideal := len(keys) / (n + 1)
	if moved == 0 || moved > 2*ideal {
		t.Fatalf("add remapped %d keys, want (0, %d]", moved, 2*ideal)
	}
}

// TestRingSuccessorsDeterministic pins the failover order: distinct shards,
// primary first, and byte-identical across an independently built ring with
// the same membership — two gateways with the same view agree on routing.
func TestRingSuccessorsDeterministic(t *testing.T) {
	a, b := ringOf(t, 8), ringOf(t, 8)
	for _, k := range testKeys(500) {
		sa, sb := a.Successors(k, 3), b.Successors(k, 3)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("successor order diverged for %q: %v vs %v", k, sa, sb)
		}
		if len(sa) != 3 {
			t.Fatalf("want 3 successors, got %v", sa)
		}
		if sa[0] != a.Lookup(k) {
			t.Fatalf("successors[0] %s != owner %s", sa[0], a.Lookup(k))
		}
		seen := map[string]bool{}
		for _, s := range sa {
			if seen[s] {
				t.Fatalf("duplicate shard in successors %v", sa)
			}
			seen[s] = true
		}
	}
	// n above the shard count truncates instead of repeating.
	if got := len(ringOf(t, 2).Successors("k", 5)); got != 2 {
		t.Fatalf("successors beyond ring size: got %d shards, want 2", got)
	}
}

func TestRingMembershipErrors(t *testing.T) {
	r := ringOf(t, 2)
	if err := r.Add("shard-0"); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := r.Add(""); err == nil {
		t.Fatal("empty shard id accepted")
	}
	if got := NewRing(0).Lookup("k"); got != "" {
		t.Fatalf("empty ring lookup returned %q", got)
	}
}
