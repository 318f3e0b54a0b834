// The cross-request plan cache. A TaskPlan is immutable and safe for
// concurrent solves, so a serving workload that sees the same task
// again should not pay plan compilation again — policy ranking, the
// LeastCompatibleFirst degree computation and the MostCompatible pool
// degrees dominate a cold solve on packed engines. planCache keys
// compiled plans by the canonical task plus an options fingerprint,
// bounds them with container.IndexLRU over a fixed slot array (no
// per-operation allocations, so a cache hit stays on the solver's
// zero-allocation serving path) and counts hits, misses and evictions,
// exposed through Solver.PlanCacheStats. Deterministic plan-time
// ErrNoTeam failures are cached too, as negative entries (a stub
// TaskPlan carrying planErr), so a serving workload's repeated
// infeasible tasks cost one map probe instead of a recompilation.

package team

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/container"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// PlanCacheStats is a snapshot of a solver's plan-cache counters.
// Hits are solves served from a cached plan, Misses are compilations
// the cache could not avoid (including the very first solve of every
// task), Evictions count plans dropped by the LRU bound. RandomUser
// queries bypass the cache and appear in no counter.
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	// NegativeHits counts the subset of Hits served from a negative
	// entry — a cached plan-time ErrNoTeam (a task skill with no
	// holders), rejected without recompiling. The serving layer's
	// cheap answer to repeated infeasible tasks.
	NegativeHits int64
	// Size is the number of cached plans (negative entries included);
	// Capacity the LRU bound (0 when the solver has no cache).
	Size, Capacity int
}

// HitRate returns Hits/(Hits+Misses), 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// planSlot is one cached plan with its key hash (the full key — the
// canonical task and the options fingerprint — lives in the plan
// itself, so collisions are resolved by an exact comparison).
type planSlot struct {
	hash uint64
	plan *TaskPlan
}

// planCache is a concurrency-safe LRU of compiled plans over a fixed
// slot universe: a map from key hash to slot indices, the slot array,
// and an IndexLRU picking eviction victims. One mutex guards it all —
// lookups are a hash, a map probe and a list touch, which is far below
// plan-compilation cost, and the scratch slice keeps non-canonical
// lookup tasks from allocating.
type planCache struct {
	mu     sync.Mutex
	slots  []planSlot
	byHash map[uint64][]int32
	lru    *container.IndexLRU
	free   []int32
	canon  []skills.SkillID // reused canonicalisation buffer
	// Reused constraint canonicalisation buffers (lookup's opts copy
	// points its constraint slices at these, keeping non-canonical
	// constrained lookups allocation-free too).
	canonInc []sgraph.NodeID
	canonExc []sgraph.NodeID

	hits, misses, evictions, negativeHits int64
}

func newPlanCache(capacity int) *planCache {
	c := &planCache{
		slots:  make([]planSlot, capacity),
		byHash: make(map[uint64][]int32, capacity),
		lru:    container.NewIndexLRU(capacity),
		free:   make([]int32, 0, capacity),
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	return c
}

// canonicalInto returns the canonical (sorted, distinct) form of xs
// without allocating once buf has grown: an already-canonical input —
// the common case, skills.NewTask guarantees it for tasks — is returned
// as-is, anything else is canonicalised into *buf. The plan cache
// calls it under c.mu, which serialises its reused buffers.
func canonicalInto[S ~[]T, T cmp.Ordered](buf *[]T, xs S) []T {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			*buf = append((*buf)[:0], xs...)
			slices.Sort(*buf)
			*buf = slices.Compact(*buf)
			return *buf
		}
	}
	return xs
}

// planKeyHash hashes the canonical task, the options fingerprint and
// the relation epoch the plan serves (the package-shared FNV-1a mix).
// Mixing the epoch means a mutation retires every cached plan at once:
// post-mutation lookups hash to fresh buckets, and the stale entries
// age out through the LRU instead of ever being served. Options.Rng is
// deliberately excluded: it is unused by the cacheable policies, and
// RandomUser never reaches the cache.
func planKeyHash(task skills.Task, opts Options, epoch uint64) uint64 {
	h := fnvOffset
	for _, s := range task {
		h = fnvMix(h, uint64(uint32(s)), 4)
	}
	h = fnvMix(h, uint64(uint32(opts.Skill))<<32|uint64(uint32(opts.User)), 8)
	h = fnvMix(h, uint64(uint32(opts.Cost))<<32|uint64(uint32(opts.MaxSeeds)), 8)
	// The constraints/diversity component (PR 9): canonical include and
	// exclude lists, the size cap, and the diversity penalty weight.
	// Zero-value constraints mix fixed constants, so unconstrained keys
	// stay consistent across all callers.
	cons := opts.Constraints
	h = fnvMix(h, uint64(uint32(len(cons.MustInclude)))<<32|uint64(uint32(len(cons.MustExclude))), 8)
	for _, u := range cons.MustInclude {
		h = fnvMix(h, uint64(uint32(u)), 4)
	}
	for _, u := range cons.MustExclude {
		h = fnvMix(h, uint64(uint32(u)), 4)
	}
	h = fnvMix(h, uint64(uint32(cons.MaxTeamSize)), 4)
	h = fnvMix(h, math.Float64bits(opts.DiverseLambda), 8)
	h = fnvMix(h, epoch, 8)
	return h
}

// planMatches reports whether a cached plan serves exactly the given
// canonical task under the given options at the given relation epoch.
func planMatches(p *TaskPlan, task skills.Task, opts Options, epoch uint64) bool {
	if p.epoch != epoch {
		return false
	}
	if p.opts.Skill != opts.Skill || p.opts.User != opts.User ||
		p.opts.Cost != opts.Cost || p.opts.MaxSeeds != opts.MaxSeeds {
		return false
	}
	// Both sides hold canonical constraints: plans store them, lookup
	// canonicalises before probing.
	return p.opts.DiverseLambda == opts.DiverseLambda && p.opts.Constraints.equal(opts.Constraints) &&
		slices.Equal(p.task, task)
}

// lookup returns the cached plan for (task, opts) at the given
// relation epoch, counting a hit or a miss. Allocation-free for
// canonical tasks.
//
//tfsn:noalloc
func (c *planCache) lookup(task skills.Task, opts Options, epoch uint64) (*TaskPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	canonical := canonicalInto(&c.canon, task)
	opts.Constraints.MustInclude = canonicalInto(&c.canonInc, opts.Constraints.MustInclude)
	opts.Constraints.MustExclude = canonicalInto(&c.canonExc, opts.Constraints.MustExclude)
	h := planKeyHash(canonical, opts, epoch)
	for _, idx := range c.byHash[h] {
		if planMatches(c.slots[idx].plan, canonical, opts, epoch) {
			c.lru.Touch(int(idx))
			c.hits++
			if c.slots[idx].plan.planErr != nil {
				c.negativeHits++
			}
			return c.slots[idx].plan, true
		}
	}
	c.misses++
	return nil, false
}

// insert publishes a freshly compiled plan, evicting the least
// recently used entry when full. A racing insert of the same key wins
// by arrival: the earlier entry is kept and returned, so concurrent
// compilers of one task converge on a single shared plan.
func (c *planCache) insert(p *TaskPlan) *TaskPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := planKeyHash(p.task, p.opts, p.epoch)
	for _, idx := range c.byHash[h] {
		if planMatches(c.slots[idx].plan, p.task, p.opts, p.epoch) {
			c.lru.Touch(int(idx))
			return c.slots[idx].plan
		}
	}
	var idx int32
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		victim := c.lru.PopBack()
		if victim < 0 {
			// Capacity 0 is rejected at construction, so a tracked
			// victim always exists; be safe anyway.
			return p
		}
		idx = int32(victim)
		c.dropFromHashLocked(c.slots[idx].hash, idx)
		c.evictions++
	}
	c.slots[idx] = planSlot{hash: h, plan: p}
	c.byHash[h] = append(c.byHash[h], idx)
	c.lru.Touch(int(idx))
	return p
}

// dropFromHashLocked removes slot idx from its hash bucket, deleting
// the bucket when it empties (buckets are almost always singletons).
func (c *planCache) dropFromHashLocked(h uint64, idx int32) {
	bucket := c.byHash[h]
	for i, b := range bucket {
		if b == idx {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.byHash, h)
	} else {
		c.byHash[h] = bucket
	}
}

// stats snapshots the counters.
func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		NegativeHits: c.negativeHits,
		Size:         c.lru.Len(),
		Capacity:     len(c.slots),
	}
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters of the
// plan-cache key hash.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// fnvMix folds the low n bytes of x into h, FNV-1a style.
func fnvMix(h, x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}
