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
// abandoned as soon as its partial cost reaches the best cost. The
// worker pool (each worker owns its scratch, the compat.Precompute
// pattern) runs FormBatch's tasks and top-K's unbounded seed sweep.

package team

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/compat"
	"repro/internal/container"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// SolverOptions configures NewSolver.
type SolverOptions struct {
	// Workers bounds the solver's parallelism: the task loop of
	// FormBatch and the seed sweep of the top-K entry points. A single
	// FormIntoContext runs its bounded seed loop on one goroutine at
	// every worker count. ≤0 uses GOMAXPROCS; 1 solves strictly
	// sequentially. Results are identical at every worker count
	// (merges are deterministic); the RandomUser policy always runs
	// sequentially so a shared Options.Rng is consumed in the legacy
	// order.
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
	rel     compat.Relation
	assign  *skills.Assignment
	packed  compat.PackedRelation  // non-nil on the packed engine
	matrix  *compat.ShardedMatrix  // the packed engine's concrete type, for devirtualised row loads
	mutable compat.MutableRelation // non-nil on mutable engines: epoch-keys the plan cache
	n       int                    // node count of the relation's graph

	// rowCounter is the packed engines' bulk AND/popcount capability:
	// the plan-compile degree passes resolve the engine state (and,
	// sharded, the lock) once per row batch instead of once per row.
	rowCounter compat.RowAndCounter
	// holdersPacked reports that the assignment's cached holder-word
	// sets can be ANDed directly against packed rows and the scratch
	// mask — the precondition of the fused MinDistance pick.
	holdersPacked bool

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
	if m, ok := rel.(compat.PackedRelation); ok {
		s.packed = m
		s.holdersPacked = holderWordsMatch(assign, m)
	}
	if rc, ok := rel.(compat.RowAndCounter); ok {
		s.rowCounter = rc
	}
	// Devirtualise the hottest lookup: distance rows of the packed
	// engine go through the concrete method instead of interface
	// dispatch.
	if cm, ok := rel.(*compat.ShardedMatrix); ok {
		s.matrix = cm
	}
	if mr, ok := rel.(compat.MutableRelation); ok {
		s.mutable = mr
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

// FormTopKContext compiles a plan and returns up to k distinct teams
// in increasing cost order (ties broken by member set) — the top-k
// variant in the spirit of Kargar & An (CIKM 2011), which falls out of
// Algorithm 2's candidate list L. It is FormTopKDiverseContext at
// lambda = 0, which keeps the cost order and packs no member sets.
// SeedsTried and SeedsSucceeded on the returned teams are aggregates
// of the whole search, not per-team telemetry: every returned team
// carries the same totals — how many seeds Algorithm 2 tried and how
// many of them grew into a (not necessarily distinct) priced team —
// even after the list is deduplicated and sliced to k. It returns
// ErrNoTeam when no seed produces a team.
func (s *Solver) FormTopKContext(ctx context.Context, task skills.Task, opts Options, k int) ([]*Team, error) {
	return s.FormTopKDiverseContext(ctx, task, opts, k, 0)
}

// FormBatch forms one team per task, amortising the solver's scratch
// across the slice and running tasks across the worker pool (each
// worker solves whole tasks with its own scratch, so per-task results
// are identical to FormIntoContext at any worker count). teams[i] is
// nil when no compatible team exists for tasks[i] (ErrNoTeam); any
// other error aborts the batch, reporting the lowest-indexed failure.
// The RandomUser policy runs the batch sequentially so the shared
// Options.Rng is consumed in task order, exactly as a sequential
// FormIntoContext loop would.
func (s *Solver) FormBatch(tasks []skills.Task, opts Options) ([]*Team, error) {
	return s.FormBatchContext(context.Background(), tasks, opts)
}

// FormBatchContext is FormBatch bounded by ctx: the context is checked
// once per task (and per worker-pool item), so an expiring deadline
// aborts the batch at the next task boundary with ErrDeadlineExceeded
// (or ErrCanceled) wrapped in the lowest-indexed unfinished task's
// batch error. Tasks already solved are discarded with the batch —
// coalescing layers that need partial results should bound their
// windows instead. The solver remains fully reusable after an abort.
func (s *Solver) FormBatchContext(ctx context.Context, tasks []skills.Task, opts Options) ([]*Team, error) {
	return s.formBatch(ctx, len(tasks), opts, func(i int) (skills.Task, Options) {
		return tasks[i], opts
	})
}

// TaskSpec is one FormBatchSpecs element: a task with its own
// constraints.
type TaskSpec struct {
	Task skills.Task
	// Constraints replaces the batch Options.Constraints verbatim for
	// this task (the zero value solves unconstrained, even when the
	// batch options carry constraints).
	Constraints Constraints
}

// FormBatchSpecs is FormBatch with per-task constraints: coalescing
// layers that batch same-options requests can keep merging even when
// the callers constrain differently. Everything else — worker pool,
// nil teams for ErrNoTeam (and ErrInfeasible), error reporting —
// matches FormBatch; each spec's Constraints replaces opts.Constraints
// for that task.
func (s *Solver) FormBatchSpecs(specs []TaskSpec, opts Options) ([]*Team, error) {
	return s.formBatch(context.Background(), len(specs), opts, func(i int) (skills.Task, Options) {
		o := opts
		o.Constraints = specs[i].Constraints
		return specs[i].Task, o
	})
}

// formBatch is the one batch implementation behind FormBatchContext
// and FormBatchSpecs: at(i) yields task i with its per-task
// options (the batch options with, possibly, per-spec constraints).
//
//tfsn:ctxpoll
func (s *Solver) formBatch(ctx context.Context, count int, opts Options, at func(i int) (skills.Task, Options)) ([]*Team, error) {
	out := make([]*Team, count)
	workers := s.workers
	if workers > count {
		workers = count
	}
	if opts.User == RandomUser || workers <= 1 {
		sc := s.getScratch()
		defer s.putScratch(sc)
		for i := 0; i < count; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("team: batch task %d: %w", i, ctxErr(err))
			}
			task, o := at(i)
			tm, err := s.formOne(ctx, sc, task, o)
			if err != nil {
				return nil, fmt.Errorf("team: batch task %d: %w", i, err)
			}
			out[i] = tm
		}
		return out, nil
	}
	err := s.runPool(ctx, workers, count, func(sc *scratch, i int) error {
		task, o := at(i)
		tm, err := s.formOne(ctx, sc, task, o)
		if err != nil {
			return fmt.Errorf("team: batch task %d: %w", i, err)
		}
		out[i] = tm
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// formOne is one batch element: plan + sequential solve on the
// worker's scratch, with ErrNoTeam mapped to a nil team.
func (s *Solver) formOne(ctx context.Context, sc *scratch, task skills.Task, opts Options) (*Team, error) {
	p, err := s.planFor(ctx, task, opts, sc)
	if err != nil {
		if errors.Is(err, ErrNoTeam) {
			return nil, nil
		}
		return nil, err
	}
	var tm Team
	if err := p.formSeq(ctx, sc, &tm); err != nil {
		if errors.Is(err, ErrNoTeam) {
			return nil, nil
		}
		return nil, err
	}
	return &tm, nil
}

// ---------------------------------------------------------------------------
// TaskPlan: the compiled, immutable part of a query.

// TaskPlan is the compiled form of one (task, options) query against a
// solver: the policy-ranked skill order, Algorithm 2's seed list, and
// — for the MostCompatible policy — the task's candidate pool with its
// precomputed compatibility degrees. Build it once with Solver.Plan
// and solve it repeatedly; every solve reuses per-worker scratch, so
// warm FormIntoContext calls on packed engines do not allocate. A plan is
// safe for concurrent use except under the RandomUser policy, whose
// shared Options.Rng serialises solves.
type TaskPlan struct {
	s     *Solver
	opts  Options
	task  skills.Task // canonical (sorted, distinct), copied
	epoch uint64      // relation epoch the plan compiled against
	empty bool
	// planErr marks a negative cache entry: the plan-time ErrNoTeam
	// this (task, options) key deterministically produces. Negative
	// entries never reach the solve paths — planFor returns the error
	// instead of the stub plan.
	planErr error

	order    []skills.SkillID // task skills, best-ranked first
	orderPos []int32          // orderPos[i] = index of order[i] in task
	seeds    []sgraph.NodeID  // eligible holders of the seed skill, MaxSeeds applied

	// Compiled constraints (opts.Constraints is stored canonical).
	// includes joins every grow before the seed; exclSet marks the
	// forbidden users; allowWords is its complement sized to the packed
	// row words, ANDed into the scratch mask so exclusion costs one
	// kernel pass per member on packed engines (nil on lazy engines,
	// whose candidate loop tests exclSet per holder); maxSize caps the
	// member count (0 = unbounded). seedInc marks the degenerate case
	// where the includes already cover the whole task: the seed list is
	// includes[:1] and grow adds no seed beyond them.
	includes   []sgraph.NodeID
	exclSet    *container.Bitset
	allowWords []uint64
	maxSize    int
	seedInc    bool

	// MostCompatible only: the distinct holders of any task skill
	// (sorted) and, aligned with it, each holder's compatibility degree
	// within that pool.
	pool       []sgraph.NodeID
	poolDegree []int32
}

// Plan compiles task+opts into a reusable TaskPlan. It performs all
// the per-task work Algorithm 2 needs exactly once: policy validation,
// task canonicalisation, skill ranking (including the
// compatibility-degree computation of LeastCompatibleFirst), seed
// selection and the MostCompatible pool degrees. When the solver has a
// plan cache, Plan serves repeated (task, options) queries from it —
// see SolverOptions.PlanCache.
func (s *Solver) Plan(task skills.Task, opts Options) (*TaskPlan, error) {
	return s.planFor(context.Background(), task, opts, nil)
}

// planFor is the cache-aware plan entry point behind Plan, the
// formation entry points and the batch loop: a cache hit returns the shared compiled
// plan without touching the scratch pool, a miss compiles through
// planWith and publishes the result. RandomUser plans bypass the cache
// entirely (their solves consume the caller's Rng, so sharing one
// across requests would entangle their random streams).
//
// Plan-time ErrNoTeam failures — a task skill with no holders — are
// deterministic for a fixed assignment, so they are cached too as
// negative entries: the repeated infeasible task is rejected from the
// cache without recompiling, and the hit is counted in
// PlanCacheStats.NegativeHits. Other plan errors (unknown policy, a
// missing Rng, context aborts) stay uncached.
func (s *Solver) planFor(ctx context.Context, task skills.Task, opts Options, sc *scratch) (*TaskPlan, error) {
	if s.plans == nil || opts.User == RandomUser {
		return s.planWith(ctx, task, opts, sc)
	}
	// Plans are keyed by the relation epoch they compiled against, so a
	// graph mutation invalidates every cached plan (positive and
	// negative) in one stroke: the next lookup carries the new epoch,
	// misses, and recompiles against the mutated relation. The epoch is
	// read once so lookup and insert agree even if a mutation races the
	// compile — the worst case is a plan stamped one epoch behind, which
	// simply never matches again.
	epoch := s.relEpoch()
	if p, ok := s.plans.lookup(task, opts, epoch); ok {
		if p.planErr != nil {
			return nil, p.planErr
		}
		return p, nil
	}
	p, err := s.planWith(ctx, task, opts, sc)
	if err != nil {
		if errors.Is(err, ErrNoTeam) {
			// Negative entries store canonical constraints, like
			// positive plans, so lookups under any spelling match.
			opts.Constraints = opts.Constraints.canonical()
			s.plans.insert(&TaskPlan{
				s:       s,
				opts:    opts,
				task:    skills.NewTask(task...),
				epoch:   epoch,
				planErr: err,
			})
		}
		return nil, err
	}
	p.epoch = epoch
	return s.plans.insert(p), nil
}

// userLimit bounds the constraint-user universe: ids must index both
// the relation's rows and the assignment's user table.
func (s *Solver) userLimit() int {
	if nu := s.assign.NumUsers(); nu < s.n {
		return nu
	}
	return s.n
}

// relEpoch returns the relation's current mutation epoch, or 0 when
// the backing engine is immutable (epoch keying then degenerates to a
// constant and the cache behaves exactly as before mutability).
func (s *Solver) relEpoch() uint64 {
	if s.mutable == nil {
		return 0
	}
	return s.mutable.Epoch()
}

// planWith compiles a plan using sc's compile buffers (ranking keys,
// degree accumulators, the pool bitset), borrowing a worker scratch
// when the caller holds none — the reuse that keeps cold plans in a
// batch from re-allocating compilation scratch for every task.
func (s *Solver) planWith(ctx context.Context, task skills.Task, opts Options, sc *scratch) (*TaskPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if sc == nil {
		sc = s.getScratch()
		defer s.putScratch(sc)
	}
	if opts.User == RandomUser && opts.Rng == nil {
		return nil, errors.New("team: RandomUser policy requires Options.Rng")
	}
	if !opts.Constraints.IsZero() {
		if err := opts.Constraints.Validate(s.userLimit()); err != nil {
			return nil, err
		}
		opts.Constraints = opts.Constraints.canonical()
	}
	// Re-canonicalise (sort, dedup, copy) rather than trusting the
	// skills.Task contract: the solve path indexes coverage by task
	// position and early-exits on sorted order, so an unsorted or
	// duplicated input must not reach it.
	p := &TaskPlan{s: s, opts: opts, task: skills.NewTask(task...)}
	task = p.task
	// Every per-skill table below is indexed by skill ID, so an ID
	// outside the universe is refused first. It is a malformed request,
	// not an infeasible task: the error is neither ErrNoTeam nor cached.
	if nu := s.assign.Universe().Len(); len(task) > 0 && (task[0] < 0 || int(task[len(task)-1]) >= nu) {
		bad := task[0]
		if bad >= 0 {
			bad = task[len(task)-1]
		}
		return nil, fmt.Errorf("team: skill %d out of range [0,%d)", bad, nu)
	}
	p.includes = opts.Constraints.MustInclude
	p.maxSize = opts.Constraints.MaxTeamSize
	if len(task) == 0 && len(p.includes) == 0 {
		p.empty = true
		return p, nil
	}
	for _, sk := range task {
		if s.assign.NumHolders(sk) == 0 {
			return nil, fmt.Errorf("%w: skill %d has no holders", ErrNoTeam, sk)
		}
	}
	if excl := opts.Constraints.MustExclude; len(excl) > 0 {
		p.exclSet = container.NewBitset(s.n)
		for _, u := range excl {
			p.exclSet.Set(int(u))
		}
		if s.packed != nil {
			// The allow mask (complement of the exclusions) is sized to
			// the packed row words; set tail bits past n are harmless
			// because row tails are always zero.
			words := p.exclSet.Words()
			p.allowWords = make([]uint64, len(words))
			for i, w := range words {
				p.allowWords[i] = ^w
			}
		}
	}
	if len(task) > 0 {
		if err := p.rankSkills(sc); err != nil {
			return nil, err
		}
	}
	// Mark the task positions the includes pre-cover; the seed skill
	// is the best-ranked uncovered one.
	sc.covered.Grow(len(task))
	for _, u := range p.includes {
		for i := range task {
			if p.holds(i, u) {
				sc.covered.Set(i)
			}
		}
	}
	if p.exclSet != nil {
		// Infeasible before any seed is tried: an uncovered task skill
		// whose every holder is excluded (pre-covered skills need no
		// holder — an include supplies them).
		for i, sk := range task {
			if sc.covered.Contains(i) {
				continue
			}
			eligible := false
			for _, u := range s.assign.Holders(sk) {
				if !p.exclSet.Contains(int(u)) {
					eligible = true
					break
				}
			}
			if !eligible {
				return nil, fmt.Errorf("%w: every holder of skill %d is excluded", ErrInfeasible, sk)
			}
		}
	}
	seedSkill := skills.SkillID(-1)
	seedFound := false
	for i, sk := range p.order {
		if !sc.covered.Contains(int(p.orderPos[i])) {
			seedSkill, seedFound = sk, true
			break
		}
	}
	if !seedFound {
		// The includes cover the whole task (or the task is empty):
		// the only candidate team is the includes themselves; grow
		// from the first include, which is already a member.
		p.seedInc = true
		p.seeds = p.includes[:1]
	} else {
		seeds := s.assign.Holders(seedSkill)
		if p.exclSet != nil {
			eligible := make([]sgraph.NodeID, 0, len(seeds))
			for _, u := range seeds {
				if !p.exclSet.Contains(int(u)) {
					eligible = append(eligible, u)
				}
			}
			seeds = eligible
		}
		if opts.MaxSeeds > 0 && len(seeds) > opts.MaxSeeds {
			seeds = seeds[:opts.MaxSeeds]
		}
		p.seeds = seeds
	}
	switch opts.User {
	case MinDistance, RandomUser:
	case MostCompatible:
		if err := p.buildPoolDegrees(sc); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("team: unknown user policy %d", int(opts.User))
	}
	return p, nil
}

// rankedSkill pairs a task skill (and its task position) with its
// policy ranking key.
type rankedSkill struct {
	s   skills.SkillID
	pos int32
	key int64
}

// rankSkills orders the task's skills by the skill policy (both
// policies are static rankings, so the order is computed once here and
// the per-step selection is a covered-bit scan). The ranking keys and
// degree accumulators live in sc's compile buffers; only the retained
// order/orderPos slices are allocated per plan.
func (p *TaskPlan) rankSkills(sc *scratch) error {
	if cap(sc.planRanked) < len(p.task) {
		sc.planRanked = make([]rankedSkill, len(p.task))
	}
	rankedSkills := sc.planRanked[:len(p.task)]
	switch p.opts.Skill {
	case RarestFirst:
		for i, s := range p.task {
			rankedSkills[i] = rankedSkill{s: s, pos: int32(i), key: int64(p.s.assign.NumHolders(s))}
		}
	case LeastCompatibleFirst:
		if cap(sc.planDeg) < len(p.task) {
			sc.planDeg = make([]int64, len(p.task))
		}
		deg := sc.planDeg[:len(p.task)]
		var err error
		sc.planHolders, err = skillCompatDegreesScratch(p.s.rel, p.s.assign, p.task, deg, sc.planHolders, p.s.pairDeg, p.s.relEpoch())
		if err != nil {
			return err
		}
		for i, s := range p.task {
			rankedSkills[i] = rankedSkill{s: s, pos: int32(i), key: deg[i]}
		}
	default:
		return fmt.Errorf("team: unknown skill policy %d", int(p.opts.Skill))
	}
	slices.SortFunc(rankedSkills, func(a, b rankedSkill) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.s, b.s)
	})
	p.order = make([]skills.SkillID, len(rankedSkills))
	p.orderPos = make([]int32, len(rankedSkills))
	for i, rs := range rankedSkills {
		p.order[i] = rs.s
		p.orderPos[i] = rs.pos
	}
	return nil
}

// buildPoolDegrees computes, for every user in the task's candidate
// pool, the number of other pool members it is compatible with — the
// MostCompatible policy's ranking — using one AND/popcount per member
// on packed engines. The pool membership bitset is sc's reusable
// compile buffer: it first dedups the holder union (the map-free form
// of the tests' taskPool reference), then doubles as the AND/popcount
// mask.
func (p *TaskPlan) buildPoolDegrees(sc *scratch) error {
	m := p.s.packed
	if sc.planPool == nil {
		sc.planPool = container.NewBitset(0)
	}
	poolSet := sc.planPool
	if m != nil {
		// Exactly the row word length, so rows AND against it directly.
		poolSet.Grow(m.NumNodes())
	} else {
		poolSet.Grow(p.s.assign.NumUsers())
	}
	members := 0
	for _, s := range p.task {
		for _, u := range p.s.assign.Holders(s) {
			if p.exclSet != nil && p.exclSet.Contains(int(u)) {
				continue // excluded users are not pool members
			}
			if !poolSet.Contains(int(u)) {
				poolSet.Set(int(u))
				members++
			}
		}
	}
	p.pool = make([]sgraph.NodeID, 0, members)
	poolSet.ForEach(func(u int) { p.pool = append(p.pool, sgraph.NodeID(u)) })
	p.poolDegree = make([]int32, len(p.pool))
	if m != nil {
		// Every row has its own bit set (reflexivity) and u is in the
		// pool, so subtract the self hit to match the v≠u count.
		if rc := p.s.rowCounter; rc != nil {
			// Bulk form: engine state (and the sharded lock) resolved
			// once for the whole pool, not once per member.
			if err := rc.AndCountRowsEach(p.pool, poolSet.Words(), p.poolDegree); err != nil {
				return err
			}
			for i := range p.poolDegree {
				p.poolDegree[i]--
			}
			return nil
		}
		for i, u := range p.pool {
			p.poolDegree[i] = int32(container.AndCount(m.RowWords(u), poolSet.Words()) - 1)
		}
		return nil
	}
	for i, u := range p.pool {
		degree := int32(0)
		for _, v := range p.pool {
			if u == v {
				continue
			}
			ok, err := p.s.rel.Compatible(u, v)
			if err != nil {
				return err
			}
			if ok {
				degree++
			}
		}
		p.poolDegree[i] = degree
	}
	return nil
}

// holds reports whether user u holds the skill at task position i: u's
// bit in that skill's holder words, read lock-free from the
// assignment's holder index. A user past the words (the graph can
// have more nodes than the assignment has users) holds no skill.
func (p *TaskPlan) holds(i int, u sgraph.NodeID) bool {
	w := p.s.assign.HolderWords(p.task[i])
	wi := int(u) >> 6
	return wi < len(w) && w[wi]&(1<<(uint(u)&63)) != 0
}

// degreeOf returns u's pool compatibility degree (u is always a pool
// member: candidates are holders of a task skill).
func (p *TaskPlan) degreeOf(u sgraph.NodeID) int32 {
	lo, hi := 0, len(p.pool)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.pool[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.poolDegree[lo]
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

	// Plan-compilation buffers, reused across the tasks a worker
	// compiles (FormBatch's cold plans): the ranking keys and degree
	// accumulators of rankSkills, the cached holder-word slices of the
	// LeastCompatibleFirst degree computation, and the pool-membership
	// bitset of buildPoolDegrees. Only a plan's retained slices
	// (order, seeds, pool, degrees) are allocated per task.
	planRanked  []rankedSkill
	planDeg     []int64
	planHolders [][]uint64
	planPool    *container.Bitset
}

func (s *Solver) newScratch() *scratch {
	sc := &scratch{covered: container.NewBitset(0)}
	if s.packed != nil {
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
	s.scratch.Put(sc)
}

// runPool is the one worker-pool implementation behind the parallel
// paths (allTeams, FormBatch): it runs fn(sc, i) for every i in
// [0, count) across the given number of workers, handing out indices
// from a shared atomic counter, with one scratch per worker. The first
// error aborts the sweep; when several workers error, the
// lowest-indexed item's error is returned, so error reporting is
// deterministic. The context is checked before every item, so a firing
// deadline stops all workers at their next item boundary with the
// typed context error.
//
//tfsn:ctxpoll
func (s *Solver) runPool(ctx context.Context, workers, count int, fn func(sc *scratch, i int) error) error {
	if workers > count {
		workers = count
	}
	var (
		next     int64 = -1
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		errIdx   = count
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.getScratch()
			defer s.putScratch(sc)
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= count {
					break
				}
				err := ctx.Err()
				if err != nil {
					err = ctxErr(err)
				} else {
					err = fn(sc, i)
				}
				if err != nil {
					mu.Lock()
					if i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					failed.Store(true)
					break
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// addMember grows the current team by u: appends it, marks the
// uncovered task skills it holds (one bit test per skill), ANDs its packed row into the candidate mask (so
// candidate filtering is one bit test per holder regardless of team
// size) and caches its packed distance row for the member-by-member
// scans of pickMinDistance and contribution.
func (sc *scratch) addMember(p *TaskPlan, u sgraph.NodeID) {
	if sc.mask != nil {
		if len(sc.members) == 0 {
			sc.mask.CopyFrom(p.s.packed.RowWords(u))
			if p.allowWords != nil {
				// Fold the exclusion complement in once; every later
				// member ANDs on top, so excluded users stay masked out
				// of candidate enumeration for the whole grow.
				sc.mask.And(p.allowWords)
			}
		} else {
			sc.mask.And(p.s.packed.RowWords(u))
		}
		// Devirtualised on the packed engine: a resident row is one
		// table load and a slice expression.
		if p.s.matrix != nil {
			sc.rows.Append(p.s.matrix.DistanceRow(u))
		} else {
			sc.rows.Append(p.s.packed.DistanceRow(u))
		}
	}
	sc.members = append(sc.members, u)
	for i := range p.task {
		if !sc.covered.Contains(i) && p.holds(i, u) {
			sc.covered.Set(i)
			sc.nCov++
		}
	}
}

// nextSkill returns the best-ranked uncovered skill. Callers only
// invoke it while uncovered skills remain.
func (p *TaskPlan) nextSkill(sc *scratch) skills.SkillID {
	for i, sk := range p.order {
		if !sc.covered.Contains(int(p.orderPos[i])) {
			return sk
		}
	}
	panic("team: nextSkill called with all skills covered")
}

// teamCompatible reports whether u is compatible with every current
// member (vacuously true for the first). On packed engines the scratch
// mask answers in one bit test; the lazy path checks pairwise.
func (p *TaskPlan) teamCompatible(sc *scratch, u sgraph.NodeID) (bool, error) {
	if len(sc.members) == 0 {
		return true, nil
	}
	if sc.mask != nil {
		return sc.mask.Contains(int(u)), nil
	}
	for _, x := range sc.members {
		ok, err := p.s.rel.Compatible(x, u)
		if err != nil || !ok {
			return ok, err
		}
	}
	return true, nil
}

// noBound is grow's bound when there is none: before the first
// priced team, and for top-K, which needs every seed's team.
const noBound = math.MaxInt32

// grow runs Algorithm 2's inner loop for one seed into sc.members and
// returns the team's cost, accumulated as each member joins. ok=false
// reports a failed seed (no compatible holder of some skill, an include
// or seed incompatible with the members so far, the size cap reached
// with skills uncovered, or an undefined distance inside the team) or
// an abandoned one, whose partial cost reached bound; ok=true
// guarantees cost < bound. Both objectives only grow as members join,
// so an abandoned seed could not have priced below bound. A non-nil
// error is a relation failure and aborts the whole solve. Includes
// join first, in canonical order, each checked against the members
// before it — so a mutually incompatible include set fails every seed
// and the solve reports ErrNoTeam.
func (p *TaskPlan) grow(sc *scratch, seed sgraph.NodeID, bound int32) (int32, bool, error) {
	sc.members = sc.members[:0]
	sc.rows.Reset()
	sc.covered.Grow(len(p.task))
	sc.nCov = 0
	sc.cost, sc.priced = 0, true
	for _, u := range p.includes {
		ok, err := p.teamCompatible(sc, u)
		if err == nil && ok {
			ok, err = p.join(sc, u, unpriced, bound)
		}
		if err != nil || !ok {
			return 0, false, err
		}
	}
	if !p.seedInc {
		if p.maxSize > 0 && len(sc.members) >= p.maxSize {
			return 0, false, nil
		}
		ok, err := p.teamCompatible(sc, seed)
		if err == nil && ok {
			ok, err = p.join(sc, seed, unpriced, bound)
		}
		if err != nil || !ok {
			return 0, false, err
		}
	}
	for sc.nCov < len(p.task) {
		if p.maxSize > 0 && len(sc.members) >= p.maxSize {
			return 0, false, nil
		}
		v, c, ok, err := p.pick(sc, p.nextSkill(sc), p.budget(sc, bound))
		if err == nil && ok {
			ok, err = p.join(sc, v, c, bound)
		}
		if err != nil || !ok {
			return 0, false, err
		}
	}
	return sc.cost, sc.priced, nil
}

// unpriced is join's contribution argument for a member the pick did
// not price: includes, the seed, and the picks of user policies other
// than MinDistance.
const unpriced = -1

// budget is the exclusive ceiling on the next member's contribution:
// one at or above it brings the running cost to bound.
func (p *TaskPlan) budget(sc *scratch, bound int32) int32 {
	if p.opts.Cost == SumDistance {
		return bound - sc.cost
	}
	return bound
}

// join adds u to the team and folds its contribution c — its largest
// (Diameter) or total (SumDistance) distance to the members before it,
// computed here when c is unpriced, and always below the budget — into
// the running cost, which therefore stays below bound. keep=false
// abandons the seed: u has no defined distance to some member, or the
// cost would reach bound. RandomUser keeps growing such a seed,
// unpriced, so every seed draws from Options.Rng exactly as a full
// growth does; sc.priced then reports the seed failed when grow ends.
func (p *TaskPlan) join(sc *scratch, u sgraph.NodeID, c, bound int32) (keep bool, err error) {
	if sc.priced {
		if c == unpriced {
			if c, sc.priced, err = p.contribution(sc, u, p.budget(sc, bound)); err != nil {
				return false, err
			}
		}
		if p.opts.Cost == SumDistance {
			sc.cost += c
		} else if c > sc.cost {
			sc.cost = c
		}
	}
	sc.addMember(p, u)
	return sc.priced || p.opts.User == RandomUser, nil
}

// contribution prices u against the current members: its largest
// (Diameter) or total (SumDistance) distance to them. ok=false reports
// an undefined distance or a contribution at or above budget. On
// packed engines each member's cached distance row answers in one
// slice index (the shared DistRows.Contribution loop); lazy engines
// ask the relation pair by pair, member first, and stop at the budget.
func (p *TaskPlan) contribution(sc *scratch, u sgraph.NodeID, budget int32) (int32, bool, error) {
	sum := p.opts.Cost == SumDistance
	if sc.mask != nil {
		c, ok := sc.rows.Contribution(sc.rows.Len(), u, sum)
		return c, ok && c < budget, nil
	}
	c := int32(0)
	for _, x := range sc.members {
		d, ok, err := p.s.rel.Distance(x, u)
		if err != nil || !ok {
			return 0, false, err
		}
		if sum {
			c += d
		} else if d > c {
			c = d
		}
		if c >= budget {
			return 0, false, nil
		}
	}
	return c, c < budget, nil
}

// pick selects which compatible holder of skill joins sc.members,
// according to the user policy, and returns its contribution to the
// cost — under MinDistance the pick's own score, which must lie below
// budget; unpriced under the other policies, which ignore the budget.
// ok=false means no compatible holder (or, under MinDistance, none at
// a defined distance below budget).
func (p *TaskPlan) pick(sc *scratch, skill skills.SkillID, budget int32) (sgraph.NodeID, int32, bool, error) {
	if sc.mask != nil && p.opts.User == MinDistance && p.s.holdersPacked {
		// Fused fast path: candidates are the set bits of
		// (holder words AND mask), enumerated and priced inside one
		// kernel pass over only the holder index's non-zero words — no
		// candidate slice, no per-candidate row indexing. Candidate
		// order, undefined-skipping and the smaller-id tie-break match
		// the materialised path exactly (same ascending enumeration,
		// same strict-improvement rule); TestSolverMatchesReference
		// pins that against the oracle.
		hi := p.s.assign.HolderIndex(skill)
		v, c, ok := sc.rows.PickMin(hi.Words, sc.mask.Words(), hi.NonZero, p.opts.Cost == SumDistance, budget)
		return v, c, ok, nil
	}
	sc.cand = sc.cand[:0]
	if sc.mask != nil {
		// Word-parallel fast path: the mask already holds the AND of
		// the members' rows, so compatibility with the whole team is
		// one bit test per holder.
		for _, v := range p.s.assign.Holders(skill) {
			if sc.mask.Contains(int(v)) {
				sc.cand = append(sc.cand, v)
			}
		}
	} else {
	holders:
		for _, v := range p.s.assign.Holders(skill) {
			if p.exclSet != nil && p.exclSet.Contains(int(v)) {
				continue
			}
			for _, x := range sc.members {
				// Query with the team member first: relations cache
				// rows per source, and the team side is small and
				// stable.
				ok, err := p.s.rel.Compatible(x, v)
				if err != nil {
					return 0, 0, false, err
				}
				if !ok {
					continue holders
				}
			}
			sc.cand = append(sc.cand, v)
		}
	}
	if len(sc.cand) == 0 {
		return 0, 0, false, nil
	}
	switch p.opts.User {
	case MinDistance:
		return p.pickMinDistance(sc, budget)
	case MostCompatible:
		best := sc.cand[0]
		bestDeg := p.degreeOf(best)
		for _, c := range sc.cand[1:] {
			if d := p.degreeOf(c); d > bestDeg {
				best, bestDeg = c, d
			}
		}
		return best, unpriced, true, nil
	case RandomUser:
		return sc.cand[p.opts.Rng.Intn(len(sc.cand))], unpriced, true, nil
	default:
		return 0, 0, false, fmt.Errorf("team: unknown user policy %d", int(p.opts.User))
	}
}

// pickMinDistance chooses the candidate with the cheapest contribution
// to the configured cost — smallest maximum distance to the team for
// Diameter, smallest total for SumDistance; ties break to the smaller
// id — and returns it with that contribution. Candidates at an
// undefined distance to some member, or at or above budget, are
// skipped.
//
// Scoring is contribution: on packed engines the members' distance
// rows are already cached in scratch (resolved once per member when it
// joined the team — on the sharded engine one shard touch per member,
// not one lock per pair), so pricing a candidate is a member-by-member
// scan of those rows. This is the packed path only for solvers whose
// holder words cannot be ANDed against rows (layout mismatch): the
// aligned case never materialises candidates and goes through
// DistRows.PickMin in pick. Distances are symmetric for every relation
// (a property-tested invariant), so reading the member side of each
// pair returns exactly the values the per-pair PairDistance path read,
// and candidate order plus tie-break are unchanged — picked members
// are identical (tested against the pairwise oracle in solver_test.go).
func (p *TaskPlan) pickMinDistance(sc *scratch, budget int32) (sgraph.NodeID, int32, bool, error) {
	best := sgraph.NodeID(-1)
	bestDist := int32(0)
	for _, c := range sc.cand {
		contribution, ok, err := p.contribution(sc, c, budget)
		if err != nil {
			return 0, 0, false, err
		}
		if !ok {
			continue
		}
		if best == -1 || contribution < bestDist || (contribution == bestDist && c < best) {
			best, bestDist = c, contribution
		}
	}
	if best == -1 {
		return 0, 0, false, nil
	}
	return best, bestDist, true, nil
}

// ---------------------------------------------------------------------------
// Solving a plan.

// FormIntoContext solves the plan into dst, reusing dst.Members'
// backing array — the warm path for serving repeated queries. Seeds
// are tried in order by formSeq's bounded loop on the calling
// goroutine, at every worker count, so the result and the allocation
// profile do not depend on the solver's workers: on a packed engine,
// warm calls are allocation-free. The seed loop checks ctx once per
// seed and aborts with ErrDeadlineExceeded or ErrCanceled, leaving
// scratch pooled and reusable. It returns ErrNoTeam when every seed
// fails.
//
//tfsn:noalloc
func (p *TaskPlan) FormIntoContext(ctx context.Context, dst *Team) error {
	if p.empty {
		*dst = Team{Members: dst.Members[:0]}
		return nil
	}
	sc := p.s.getScratch()
	defer p.s.putScratch(sc)
	return p.formSeq(ctx, sc, dst)
}

// formSeq is the one solve loop: Algorithm 2's outer loop on one
// scratch, branch-and-bound. It keeps the cheapest team (first seed
// wins ties, as the loop order dictates) in sc.best and copies it into
// dst at the end. Once a team is priced, its cost bounds every later
// seed's grow, which abandons the seed as soon as its partial cost
// reaches it: costs only grow as members join and a later seed must be
// strictly cheaper to win, so the abandoned growth could never have
// won, and a seed that could win makes the identical picks (every
// pick's score lies below the budget). SeedsSucceeded therefore counts
// the seeds that set a new best team. Under RandomUser an abandoned
// seed still grows in full, unpriced (see join), so Options.Rng is
// consumed exactly as in a full growth of every seed.
//
// The context is checked once per seed — cooperative cancellation at
// the granularity of one grow-and-price step. The body allocates only
// on the all-seeds-failed error path; warm wins reuse sc.best and
// dst.Members in place.
//
//tfsn:noalloc
//tfsn:ctxpoll
func (p *TaskPlan) formSeq(ctx context.Context, sc *scratch, dst *Team) error {
	if p.empty {
		*dst = Team{Members: dst.Members[:0]}
		return nil
	}
	bestCost := int32(noBound)
	succeeded := 0
	sc.best = sc.best[:0]
	for _, seed := range p.seeds {
		if err := ctx.Err(); err != nil {
			return ctxErr(err)
		}
		cost, ok, err := p.grow(sc, seed, bestCost)
		if err != nil {
			return err
		}
		if !ok {
			continue // failed, or abandoned: it cannot beat bestCost
		}
		bestCost = cost
		succeeded++
		sc.best = append(sc.best[:0], sc.members...)
	}
	if succeeded == 0 {
		//tfsn:allow-alloc(terminal error path: every seed failed, no team to return)
		return fmt.Errorf("%w: all %d seeds failed for task %v", ErrNoTeam, len(p.seeds), p.task)
	}
	dst.Members = append(dst.Members[:0], sc.best...)
	dst.Cost = bestCost
	dst.SeedsTried = len(p.seeds)
	dst.SeedsSucceeded = succeeded
	return nil
}

// FormTopKContext solves the plan and returns up to k distinct teams
// in increasing cost order: FormTopKDiverseContext at lambda = 0 (see
// Solver.FormTopKContext).
func (p *TaskPlan) FormTopKContext(ctx context.Context, k int) ([]*Team, error) {
	return p.FormTopKDiverseContext(ctx, k, 0)
}

// rankedTeams is the shared prologue of the top-K entry points: grow
// every seed, drop duplicate member sets, and sort by cost (legacy
// member-set tie-break). It returns the distinct teams, their aligned
// sorted member sets, and how many seeds grew into a priced team.
func (p *TaskPlan) rankedTeams(ctx context.Context) ([]*Team, [][]sgraph.NodeID, int, error) {
	teams, err := p.allTeams(ctx)
	if err != nil {
		return nil, nil, 0, err
	}
	succeeded := len(teams)
	if succeeded == 0 {
		return nil, nil, 0, fmt.Errorf("%w: all %d seeds failed for task %v", ErrNoTeam, len(p.seeds), p.task)
	}
	distinct, sortedSets := dedupTeams(teams)
	sort.Sort(&teamsByCost{teams: distinct, keys: sortedSets})
	return distinct, sortedSets, succeeded, nil
}

// allTeams grows every seed without a bound — top-K needs every
// seed's team — and returns the successful teams in seed order (the
// legacy formAll), using the worker pool for deterministic parallel
// exploration when available.
//
//tfsn:ctxpoll
func (p *TaskPlan) allTeams(ctx context.Context) ([]*Team, error) {
	results := make([]*Team, len(p.seeds))
	collect := func(sc *scratch, i int) error {
		cost, ok, err := p.grow(sc, p.seeds[i], noBound)
		if err != nil || !ok {
			return err
		}
		results[i] = &Team{Members: append([]sgraph.NodeID(nil), sc.members...), Cost: cost}
		return nil
	}
	if p.s.workers > 1 && len(p.seeds) > 1 && p.opts.User != RandomUser {
		if err := p.s.runPool(ctx, p.s.workers, len(p.seeds), collect); err != nil {
			return nil, err
		}
	} else {
		sc := p.s.getScratch()
		defer p.s.putScratch(sc)
		for i := range p.seeds {
			if err := ctx.Err(); err != nil {
				return nil, ctxErr(err)
			}
			if err := collect(sc, i); err != nil {
				return nil, err
			}
		}
	}
	teams := results[:0]
	//tfsn:ctxfree(in-place compaction of the already-grown results; bounded by the seed count)
	for _, tm := range results {
		if tm != nil {
			teams = append(teams, tm)
		}
	}
	return teams, nil
}

// ---------------------------------------------------------------------------
// Member-set dedup and ordering.

// dedupTeams drops teams whose member set already appeared (several
// seeds can grow into the same team), keeping first occurrences in
// order. Sets are compared by a 64-bit order-insensitive hash with an
// exact member-wise check on hash collisions — no string keys. It
// returns the surviving teams and, aligned, each team's sorted member
// set for use as a sort key.
func dedupTeams(teams []*Team) ([]*Team, [][]sgraph.NodeID) {
	distinct := teams[:0]
	sortedSets := make([][]sgraph.NodeID, 0, len(teams))
	byHash := make(map[uint64][]int, len(teams))
next:
	for _, tm := range teams {
		set := append([]sgraph.NodeID(nil), tm.Members...)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		h := membersHash(set)
		for _, j := range byHash[h] {
			if equalMembers(sortedSets[j], set) {
				continue next
			}
		}
		byHash[h] = append(byHash[h], len(distinct))
		distinct = append(distinct, tm)
		sortedSets = append(sortedSets, set)
	}
	return distinct, sortedSets
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters shared by the
// package's hashes (member-set dedup, plan-cache keys).
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

// membersHash hashes a sorted member set (FNV-1a over the ids).
func membersHash(sorted []sgraph.NodeID) uint64 {
	h := fnvOffset
	for _, m := range sorted {
		h = fnvMix(h, uint64(uint32(m)), 4)
	}
	return h
}

func equalMembers(a, b []sgraph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareMemberSets orders two sorted member sets exactly as the
// comma-joined decimal keys of the original implementation compared,
// so the top-K tie-break order is stable across the rewrite: sets are
// compared element-wise by the decimal string of each id (a decimal
// prefix sorts first, matching ',' < '0'), then by length.
func compareMemberSets(a, b []sgraph.NodeID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			var bufA, bufB [20]byte
			da := strconv.AppendInt(bufA[:0], int64(a[i]), 10)
			db := strconv.AppendInt(bufB[:0], int64(b[i]), 10)
			return bytes.Compare(da, db)
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// teamsByCost sorts teams by cost, ties broken by the legacy
// member-set order; keys holds each team's sorted member set.
type teamsByCost struct {
	teams []*Team
	keys  [][]sgraph.NodeID
}

func (t *teamsByCost) Len() int { return len(t.teams) }
func (t *teamsByCost) Less(i, j int) bool {
	if t.teams[i].Cost != t.teams[j].Cost {
		return t.teams[i].Cost < t.teams[j].Cost
	}
	return compareMemberSets(t.keys[i], t.keys[j]) < 0
}
func (t *teamsByCost) Swap(i, j int) {
	t.teams[i], t.teams[j] = t.teams[j], t.teams[i]
	t.keys[i], t.keys[j] = t.keys[j], t.keys[i]
}
