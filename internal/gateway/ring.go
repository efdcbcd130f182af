// Package gateway is the front tier of a multi-shard deployment: it
// consistent-hashes classification requests across a fixed set of serving
// shards, ranks each request's ring successors by the shards' own routing
// level and drain flag, fails over to the next candidate when a shard cannot
// answer, enforces per-client retry budgets and sheds load at the front door.
// It routes; it does not scale. The shard set is whatever the caller adds.
//
// The gateway talks to shards through the ShardClient interface; LocalShard
// wraps an in-process *serve.Server, the topology every test and the demo
// uses.
package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each shard owns
// VirtualNodes points on a 64-bit circle; a key routes to the first point
// clockwise from its hash. Virtual nodes smooth the key distribution
// (ownership imbalance shrinks roughly as 1/sqrt(vnodes)) and make shard
// add/remove move only ~K/N of the keyspace instead of reshuffling it all.
//
// Ring is not concurrency-safe; the Gateway guards it with its own mutex.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	shards map[string]struct{}
}

type ringPoint struct {
	hash  uint64
	shard string
}

// DefaultVirtualNodes balances lookup cost against distribution smoothness
// for single-digit shard counts.
const DefaultVirtualNodes = 64

// NewRing returns an empty ring with the given virtual-node count per shard
// (<=0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]struct{})}
}

// hash64 is the ring's hash: FNV-1a over the byte string, then a
// splitmix64-style avalanche. Raw FNV of short, similar strings ("shard-0#1",
// "shard-0#2", ...) lands clustered on the circle — shard ownership shares
// then spread as wide as 0.2x–1.9x the ideal; the finaliser restores the
// uniformity the virtual nodes are supposed to buy. Deterministic across
// processes and platforms, which keeps routing traces reproducible.
func hash64(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a shard's virtual nodes. Adding an existing shard is an error —
// silent re-adds would double its ring weight.
func (r *Ring) Add(shard string) error {
	if shard == "" {
		return fmt.Errorf("gateway: empty shard id")
	}
	if _, ok := r.shards[shard]; ok {
		return fmt.Errorf("gateway: shard %q already on ring", shard)
	}
	r.shards[shard] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:  hash64(fmt.Sprintf("%s#%d", shard, i)),
			shard: shard,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return nil
}

// Size returns the number of shards on the ring.
func (r *Ring) Size() int { return len(r.shards) }

// Shards returns the shard ids on the ring in sorted order.
func (r *Ring) Shards() []string {
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the shard owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	succ := r.Successors(key, 1)
	if len(succ) == 0 {
		return ""
	}
	return succ[0]
}

// Successors returns up to n distinct shards in clockwise order starting at
// key's owner. Index 0 is the primary; the rest are the failover order, which
// every gateway computes identically for the same ring membership — that
// determinism is what makes routing traces reproducible.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	h := hash64(key)
	// First ring point at or clockwise-after h, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for range r.points {
		p := r.points[i%len(r.points)]
		i++
		if _, dup := seen[p.shard]; !dup {
			seen[p.shard] = struct{}{}
			out = append(out, p.shard)
			if len(out) == n {
				break
			}
		}
	}
	return out
}
