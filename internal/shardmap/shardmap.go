// Package shardmap places far-memory objects across multiple remote
// backends (shards) and serves them through a single farmem.Store.
//
// Placement uses rendezvous (highest-random-weight) hashing: every
// (shard, key) pair gets a pseudo-random score and the key lives on the
// shard with the highest score. Unlike modulo placement, adding or
// removing one shard moves only the keys that scored highest on it
// (1/N of the space), and unlike consistent-hashing rings there is no
// token table to size or rebalance — N mixes per lookup, branch-free.
//
// Placement granularity follows the compiler's per-data-structure view
// of the heap (CaRDS §4.2): a structure whose accesses chase pointers
// pins whole to one shard, so the batched prefetch windows the compiler
// plans stay single-backend (one doorbell, one connection); large
// flat pools stripe object-by-object across all shards for aggregate
// bandwidth. See Policy.
package shardmap

// Policy is the per-data-structure placement rule.
type Policy int

const (
	// PolicyStripe spreads the structure's objects across every shard by
	// (ds, idx) — the default, maximizing aggregate read bandwidth for
	// flat pools.
	PolicyStripe Policy = iota
	// PolicyPin places the whole structure on one shard chosen by its
	// id, keeping compiler-batched prefetch windows on a single
	// backend's pipelined connection.
	PolicyPin
)

func (p Policy) String() string {
	if p == PolicyPin {
		return "pin"
	}
	return "stripe"
}

// PolicyFor derives the placement rule from the compiler's ds_init
// hints: pointer-chasing and recursive structures pin (their prefetch
// batches follow edges within one pool and must not fan out mid-chain);
// everything else stripes.
func PolicyFor(recursive, pointerChase bool) Policy {
	if recursive || pointerChase {
		return PolicyPin
	}
	return PolicyStripe
}

// mix64 is the splitmix64 finalizer: a cheap invertible mix whose
// output bits all depend on all input bits, good enough to make HRW
// scores statistically independent per (shard, key).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Map is an immutable rendezvous-hash placement over n shards.
type Map struct {
	salts []uint64
}

// NewMap builds a placement over n shards (n >= 1).
func NewMap(n int) *Map {
	if n < 1 {
		n = 1
	}
	salts := make([]uint64, n)
	for i := range salts {
		salts[i] = mix64(uint64(i) + 1)
	}
	return &Map{salts: salts}
}

// Owner returns the shard with the highest rendezvous score for key.
// Ties (astronomically rare) break toward the lower index, so placement
// is total and deterministic.
func (m *Map) Owner(key uint64) int {
	best, bestScore := 0, mix64(key^m.salts[0])
	for i := 1; i < len(m.salts); i++ {
		if s := mix64(key ^ m.salts[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// DSKey is the placement key of a pinned data structure: all its
// objects share it.
func DSKey(ds int) uint64 { return mix64(uint64(ds) + 0x0D5) }

// ObjKey is the placement key of one object of a striped structure
// (and the (ds, idx) map key the stores above use).
func ObjKey(ds, idx int) uint64 { return uint64(ds)<<32 | uint64(uint32(idx)) }

// Owners appends the top-r shards for key in descending rendezvous
// rank into dst (reused when its capacity allows — the replica hot
// path passes a scratch slice to stay allocation-free). dst[0] is
// Owner(key); the rest are the failover order. Rendezvous ranking
// makes the list stable under membership churn: removing one shard
// promotes exactly the next-ranked shard for the keys it owned.
func (m *Map) Owners(key uint64, r int, dst []int) []int {
	n := len(m.salts)
	if r > n {
		r = n
	}
	if r < 1 {
		r = 1
	}
	dst = dst[:0]
	for len(dst) < r {
		best, bestScore, found := -1, uint64(0), false
		for i := 0; i < n; i++ {
			taken := false
			for _, d := range dst {
				if d == i {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			// Strict > keeps the tie-break toward the lower index, matching
			// Owner exactly.
			if s := mix64(key ^ m.salts[i]); !found || s > bestScore {
				best, bestScore, found = i, s, true
			}
		}
		dst = append(dst, best)
	}
	return dst
}
