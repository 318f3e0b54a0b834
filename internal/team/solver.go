// The reusable team-formation solver: a plan/scratch split for
// Algorithm 2, mirroring what signedbfs.Scratch did for BFS. A
// compiled TaskPlan holds everything that depends only on (relation,
// assignment, task, options) — the policy-ranked skill order, the seed
// list, the candidate pool and its compatibility degrees — and is
// built once per task; per-worker scratch holds everything a single
// solve mutates — the covered-skill bitset, the members/candidate
// buffers and the row-AND mask — so that warm solves on packed engines
// allocate nothing. The seed loop of Algorithm 2 is one sequential,
// branch-and-bound loop: once a team is priced, every later seed is
// abandoned as soon as its partial cost reaches the best cost; top-K
// runs the same loop with a bound from its k cheapest teams. The
// worker pool (each worker owns its scratch, the compat.Precompute
// pattern) runs FormBatch's tasks.

package team

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/compat"
	"repro/internal/container"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// SolverOptions configures NewSolver.
type SolverOptions struct {
	// Workers bounds the solver's parallelism, which is the task loop
	// of FormBatch. A single FormIntoContext or top-K call runs its
	// bounded seed loop on one goroutine at every worker count. ≤0
	// uses GOMAXPROCS; 1 solves strictly sequentially. Results are
	// identical at every worker count (merges are deterministic); the
	// RandomUser policy always runs sequentially so a shared
	// Options.Rng is consumed in the legacy order.
	Workers int
	// PlanCache, when positive, keeps up to that many compiled plans
	// in a per-solver LRU keyed by the canonical task and the options
	// fingerprint (skill/user policy, cost, MaxSeeds), so repeated
	// queries skip plan compilation entirely — the cross-request
	// serving path. Cache hits are shared plans: immutable, safe for
	// concurrent solves, and allocation-free to retrieve. RandomUser
	// queries bypass the cache (their solves consume the caller's
	// Rng). Plan-time ErrNoTeam failures (a holderless task skill) are
	// cached as negative entries, so repeated infeasible tasks are
	// rejected without recompiling (PlanCacheStats.NegativeHits);
	// other plan errors recompile on every request. 0 disables the
	// cache.
	PlanCache int
}

// Solver answers repeated team-formation queries over one fixed
// (relation, assignment) pair. It exists for serving workloads: where
// a one-shot formation pays per-call setup — policy ranking, pool
// degrees, coverage maps — a Solver compiles that setup into a
// TaskPlan once and reuses per-worker scratch across calls, so warm
// solves on packed engines are allocation-free and batches run across
// a worker pool. A Solver is safe for concurrent use; the relation and
// assignment must not change underneath it.
type Solver struct {
	rel    compat.Relation
	assign *skills.Assignment
	matrix *compat.ShardedMatrix // the packed engine; nil on the lazy one
	n      int                   // node count of the relation's graph

	// pairDeg memoises the task-independent pairwise skill degrees
	// cd(s,s') across plan compilations, one table per relation epoch
	// so a graph mutation invalidates it in one stroke.
	pairDeg *pairDegreeMemo

	workers int
	scratch sync.Pool  // *scratch
	plans   *planCache // nil when SolverOptions.PlanCache is 0
}

// NewSolver builds a solver over rel and assign.
func NewSolver(rel compat.Relation, assign *skills.Assignment, opts SolverOptions) *Solver {
	s := &Solver{
		rel:     rel,
		assign:  assign,
		n:       rel.Graph().NumNodes(),
		pairDeg: newPairDegreeMemo(assign.Universe().Len()),
		workers: opts.Workers,
	}
	if m, ok := rel.(*compat.ShardedMatrix); ok {
		s.matrix = m
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if opts.PlanCache > 0 {
		s.plans = newPlanCache(opts.PlanCache)
	}
	s.scratch.New = func() any { return s.newScratch() }
	return s
}

// PlanCacheStats snapshots the solver's plan-cache counters; the zero
// value (Capacity 0) reports a solver built without a cache.
func (s *Solver) PlanCacheStats() PlanCacheStats {
	if s.plans == nil {
		return PlanCacheStats{}
	}
	return s.plans.stats()
}

// FormIntoContext compiles a plan for task and solves it into dst,
// reusing dst.Members' backing array: Algorithm 2 with the plan's
// policies, its seeds tried in order on one goroutine, each abandoned
// once it cannot beat the best team so far. With a plan cache enabled,
// repeated tasks reuse the cached plan. This is the zero-allocation
// serving entry point: on a packed engine, a warm call whose plan is
// served from the cache performs no allocations at all, at any worker
// count (the CI alloc smoke asserts this via BenchmarkPlanCacheServe).
//
// The solve checks ctx cooperatively — one Err call per seed (and per
// worker-pool item), so a warm cache hit under context.Background
// stays allocation-free — and aborts with ErrDeadlineExceeded or
// ErrCanceled when it fires. An abort leaves the solver fully
// reusable: scratch is pooled as usual and cached plans are
// unaffected.
//
//tfsn:noalloc
func (s *Solver) FormIntoContext(ctx context.Context, task skills.Task, opts Options, dst *Team) error {
	p, err := s.planFor(ctx, task, opts, nil)
	if err != nil {
		return err
	}
	return p.FormIntoContext(ctx, dst)
}

// ---------------------------------------------------------------------------
// scratch: the mutable part of a solve, one per worker.

// scratch carries every buffer a single solve mutates, so repeated
// solves reuse the same memory: the covered-skill bitset (indexed by
// task position, replacing the per-call map), the members and
// candidate slices, the incremental row-AND mask of packed engines,
// and the current best team.
type scratch struct {
	mask    *container.Bitset // AND of the members' packed rows; nil on lazy engines
	covered *container.Bitset // task positions covered by the members
	nCov    int
	members []sgraph.NodeID
	// rows caches, aligned with members, each member's packed distance
	// row (packed engines only; empty on lazy). A row is resolved once
	// when the member joins — one shard touch per member on the
	// sharded engine — and the stack then feeds the fused MinDistance
	// pick (compat.DistRows.PickMin, one kernel pass over holder AND
	// mask words) and the shared Contribution scoring loop of the
	// pick fallback and the running cost.
	//
	//tfsn:viewok(putScratch Clears the rows before pooling, so no view outlives the solve that resolved it)
	rows compat.DistRows
	cand []sgraph.NodeID
	best []sgraph.NodeID
	// cost is the grown team's running cost, folded in as each member
	// joins; priced=false marks a seed that failed pricing (an undefined
	// distance, or the bound reached), which only RandomUser keeps
	// growing.
	cost   int32
	priced bool
	// reach is the graph's skill-reach index and taskWords the task's
	// skills as a bitset of the same width, both set by the first seed
	// screen of a solve that needs them (see canBeat); formSeq resets
	// reach, so every solve reads the graph snapshot current at its
	// start.
	reach     *skills.ReachIndex
	taskWords []uint64

	// Plan-compilation buffers, reused across the tasks a worker
	// compiles (FormBatch's cold plans): the ranking keys and degree
	// accumulators of rankSkills and the pool-membership bitset of
	// buildPoolDegrees. Only a plan's retained slices (order, seeds,
	// pool, degrees) are allocated per task.
	planRanked []rankedSkill
	planDeg    []int64
	planPool   *container.Bitset
}

func (s *Solver) newScratch() *scratch {
	sc := &scratch{covered: container.NewBitset(0)}
	if s.matrix != nil {
		sc.mask = container.NewBitset(s.n)
	}
	return sc
}

func (s *Solver) getScratch() *scratch { return s.scratch.Get().(*scratch) }
func (s *Solver) putScratch(sc *scratch) {
	// Drop the cached distance-row views (the whole capacity — grow
	// only truncates, leaving stale entries past len) before pooling:
	// on the sharded engine each view aliases an entire shard slab, and
	// a pooled scratch holding them would pin evicted slabs past the
	// engine's residency bound until some unrelated GC clears the pool.
	sc.rows.Clear()
	sc.reach = nil // nor pin a retired graph's reach index
	s.scratch.Put(sc)
}
