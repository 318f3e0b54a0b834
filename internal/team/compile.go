// Plan compilation: the immutable TaskPlan of one (task, options)
// query, built once and solved repeatedly.

package team

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/container"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

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
	// Every user id indexes the relation's rows, so an assignment with
	// more users than the graph has nodes is refused before anything is
	// looked up. Like an out-of-range skill, it is a malformed request
	// rather than an infeasible task: neither ErrNoTeam nor cached.
	if nu := s.assign.NumUsers(); nu > s.n {
		return nil, fmt.Errorf("team: assignment has %d users, more than the graph's %d nodes", nu, s.n)
	}
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
	epoch := s.rel.Epoch()
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
		if err := opts.Constraints.Validate(s.assign.NumUsers()); err != nil {
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
		if s.matrix != nil {
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
		if err := taskSkillDegrees(p.s.rel, p.s.matrix, p.s.assign, p.task, deg, p.s.pairDeg, p.s.rel.Epoch()); err != nil {
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
// on the packed engine. The pool membership bitset is sc's reusable
// compile buffer: it first dedups the holder union (the map-free form
// of the tests' taskPool reference), then doubles as the AND/popcount
// mask.
func (p *TaskPlan) buildPoolDegrees(sc *scratch) error {
	if sc.planPool == nil {
		sc.planPool = container.NewBitset(0)
	}
	poolSet := sc.planPool
	poolSet.Grow(p.s.assign.NumUsers())
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
	if m := p.s.matrix; m != nil {
		// Every row has its own bit set (reflexivity) and u is in the
		// pool, so subtract the self hit to match the v≠u count.
		if err := m.AndCountRowsEach(p.pool, poolSet.Words(), p.poolDegree); err != nil {
			return err
		}
		for i := range p.poolDegree {
			p.poolDegree[i]--
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
