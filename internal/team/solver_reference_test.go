// Reference oracles for the objective variants of PR 9: constrained
// formation (must-include / must-exclude / max-size) and top-K diverse
// selection. Like solver_test.go's referenceForm, these are
// deliberately naive map-and-slice implementations of the documented
// semantics — includes join in canonical order, exclusions vanish from
// seeds and candidate sets, the size cap gates the seed and every
// pick, and the diverse selection repeats topk.go's float
// arithmetic verbatim — and the optimised paths must reproduce them
// bit-for-bit on every engine, at every shard geometry, at every
// worker count.

package team

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// referenceConstrainedFormAll mirrors planWith + grow for constrained
// queries: it returns every successful seed's team in seed order, the
// seed count, and the plan-time error class the solver would report
// (ErrInfeasible wraps ErrNoTeam, as in constraints.go).
func referenceConstrainedFormAll(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options) ([]*Team, int, error) {
	n := rel.Graph().NumNodes()
	cons := opts.Constraints
	if !cons.IsZero() {
		limit := assign.NumUsers()
		if n < limit {
			limit = n
		}
		if err := cons.Validate(limit); err != nil {
			return nil, 0, err
		}
		cons = cons.canonical()
	}
	includes := cons.MustInclude
	excluded := map[sgraph.NodeID]bool{}
	for _, u := range cons.MustExclude {
		excluded[u] = true
	}
	task = skills.NewTask(task...)
	if len(task) == 0 && len(includes) == 0 {
		return nil, 0, nil
	}
	for _, s := range task {
		if assign.NumHolders(s) == 0 {
			return nil, 0, ErrNoTeam
		}
	}
	// Task skills the includes pre-cover; the seed skill is the
	// best-ranked skill outside this set.
	coveredByInc := map[skills.SkillID]bool{}
	for _, u := range includes {
		for _, s := range assign.UserSkills(u) {
			if task.Contains(s) {
				coveredByInc[s] = true
			}
		}
	}
	if len(excluded) > 0 {
		for _, s := range task {
			if coveredByInc[s] {
				continue
			}
			eligible := false
			for _, u := range assign.Holders(s) {
				if !excluded[u] {
					eligible = true
					break
				}
			}
			if !eligible {
				return nil, 0, ErrInfeasible
			}
		}
	}
	order, err := referenceSkillOrder(rel, assign, task, opts.Skill)
	if err != nil {
		return nil, 0, err
	}
	var poolDegree map[sgraph.NodeID]int
	if opts.User == MostCompatible {
		// Excluded users are not pool members, so they neither rank nor
		// contribute degree — exactly buildPoolDegrees' filter.
		poolDegree = map[sgraph.NodeID]int{}
		seen := map[sgraph.NodeID]bool{}
		var pool []sgraph.NodeID
		for _, s := range task {
			for _, u := range assign.Holders(s) {
				if !excluded[u] && !seen[u] {
					seen[u] = true
					pool = append(pool, u)
				}
			}
		}
		for _, u := range pool {
			for _, v := range pool {
				if u == v {
					continue
				}
				ok, err := rel.Compatible(u, v)
				if err != nil {
					return nil, 0, err
				}
				if ok {
					poolDegree[u]++
				}
			}
		}
	}
	seedSkill := skills.SkillID(-1)
	for _, s := range order {
		if !coveredByInc[s] {
			seedSkill = s
			break
		}
	}
	var seeds []sgraph.NodeID
	seedInc := false
	if seedSkill == -1 {
		// The includes cover the whole task: one trial, no seed member.
		seedInc = true
		seeds = includes[:1]
	} else {
		for _, u := range assign.Holders(seedSkill) {
			if !excluded[u] {
				seeds = append(seeds, u)
			}
		}
		if opts.MaxSeeds > 0 && len(seeds) > opts.MaxSeeds {
			seeds = seeds[:opts.MaxSeeds]
		}
	}
	var teams []*Team
	for _, seed := range seeds {
		members, ok, err := referenceConstrainedGrow(rel, assign, task, order, includes, excluded, cons.MaxTeamSize, seedInc, seed, opts, poolDegree)
		if err != nil {
			return nil, len(seeds), err
		}
		if !ok {
			continue
		}
		cost, err := CostWith(rel, members, opts.Cost)
		if err != nil {
			if errors.Is(err, errUndefinedDistance) {
				continue
			}
			return nil, len(seeds), err
		}
		teams = append(teams, &Team{Members: members, Cost: cost})
	}
	return teams, len(seeds), nil
}

// referenceConstrainedGrow is grow's naive twin: includes first (each
// checked against the members before it), then the seed unless the
// includes already cover the task, then greedy picks — with the size
// cap tested before the seed joins and before every pick, and excluded
// users absent from every candidate set.
func referenceConstrainedGrow(rel compat.Relation, assign *skills.Assignment, task skills.Task, order []skills.SkillID, includes []sgraph.NodeID, excluded map[sgraph.NodeID]bool, maxSize int, seedInc bool, seed sgraph.NodeID, opts Options, poolDegree map[sgraph.NodeID]int) ([]sgraph.NodeID, bool, error) {
	var members []sgraph.NodeID
	covered := map[skills.SkillID]bool{}
	compatAll := func(u sgraph.NodeID) (bool, error) {
		for _, x := range members {
			ok, err := rel.Compatible(x, u)
			if err != nil || !ok {
				return ok, err
			}
		}
		return true, nil
	}
	add := func(u sgraph.NodeID) {
		members = append(members, u)
		for _, s := range assign.UserSkills(u) {
			if task.Contains(s) {
				covered[s] = true
			}
		}
	}
	for _, u := range includes {
		ok, err := compatAll(u)
		if err != nil || !ok {
			return nil, false, err
		}
		add(u)
	}
	if !seedInc {
		if maxSize > 0 && len(members) >= maxSize {
			return nil, false, nil
		}
		ok, err := compatAll(seed)
		if err != nil || !ok {
			return nil, false, err
		}
		add(seed)
	}
	for len(covered) < len(task) {
		if maxSize > 0 && len(members) >= maxSize {
			return nil, false, nil
		}
		var next skills.SkillID = -1
		for _, s := range order {
			if !covered[s] {
				next = s
				break
			}
		}
		var cands []sgraph.NodeID
		for _, v := range assign.Holders(next) {
			if excluded[v] {
				continue
			}
			ok, err := compatAll(v)
			if err != nil {
				return nil, false, err
			}
			if ok {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return nil, false, nil
		}
		var chosen sgraph.NodeID
		switch opts.User {
		case MinDistance:
			best := sgraph.NodeID(-1)
			bestDist := int32(0)
			for _, c := range cands {
				contribution := int32(0)
				defined := true
				for _, x := range members {
					d, ok, err := rel.Distance(c, x)
					if err != nil {
						return nil, false, err
					}
					if !ok {
						defined = false
						break
					}
					if opts.Cost == SumDistance {
						contribution += d
					} else if d > contribution {
						contribution = d
					}
				}
				if !defined {
					continue
				}
				if best == -1 || contribution < bestDist || (contribution == bestDist && c < best) {
					best, bestDist = c, contribution
				}
			}
			if best == -1 {
				return nil, false, nil
			}
			chosen = best
		case MostCompatible:
			chosen = cands[0]
			for _, c := range cands[1:] {
				if poolDegree[c] > poolDegree[chosen] {
					chosen = c
				}
			}
		case RandomUser:
			chosen = cands[opts.Rng.Intn(len(cands))]
		}
		add(chosen)
	}
	return members, true, nil
}

// referenceConstrainedForm reduces the all-seeds sweep to Form's
// answer: cheapest team, first seed wins ties, SeedsTried over the
// whole sweep and SeedsSucceeded counting record-setting seeds (see
// referenceBest).
func referenceConstrainedForm(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options) (*Team, error) {
	teams, tried, err := referenceConstrainedFormAll(rel, assign, task, opts)
	if err != nil {
		return nil, err
	}
	if len(skills.NewTask(task...)) == 0 && len(opts.Constraints.canonical().MustInclude) == 0 {
		return &Team{}, nil
	}
	return referenceBest(teams, tried)
}

// referenceTopKDiverse mirrors TaskPlan.FormTopKDiverseContext: top-K's
// candidate list (dedup in seed order, cost sort with the legacy
// decimal tie-break), then greedy selection by
// score = cost + lambda·maxOverlap(Jaccard) with the exact float
// arithmetic of topk.go — integer intersection and union, one
// float64 division per pair, strict-improvement first-wins scan.
// SeedsSucceeded replays the bound schedule (referenceTopKSucceeded).
func referenceTopKDiverse(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options, k int, lambda float64) ([]*Team, error) {
	teams, tried, err := referenceConstrainedFormAll(rel, assign, task, opts)
	if err != nil {
		return nil, err
	}
	if len(skills.NewTask(task...)) == 0 && len(opts.Constraints.canonical().MustInclude) == 0 {
		return []*Team{{}}, nil
	}
	if len(teams) == 0 {
		return nil, ErrNoTeam
	}
	key := func(members []sgraph.NodeID) string {
		sorted := append([]sgraph.NodeID(nil), members...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var b strings.Builder
		for _, m := range sorted {
			b.WriteString(strconv.Itoa(int(m)))
			b.WriteByte(',')
		}
		return b.String()
	}
	seen := map[string]bool{}
	var distinct []*Team
	for _, tm := range teams {
		s := key(tm.Members)
		if seen[s] {
			continue
		}
		seen[s] = true
		distinct = append(distinct, tm)
	}
	sort.Slice(distinct, func(i, j int) bool {
		if distinct[i].Cost != distinct[j].Cost {
			return distinct[i].Cost < distinct[j].Cost
		}
		return key(distinct[i].Members) < key(distinct[j].Members)
	})
	succeeded := referenceTopKSucceeded(teams, k, lambda, key)
	if k > len(distinct) {
		k = len(distinct)
	}
	sets := make([]map[sgraph.NodeID]bool, len(distinct))
	for i, tm := range distinct {
		sets[i] = map[sgraph.NodeID]bool{}
		for _, u := range tm.Members {
			sets[i][u] = true
		}
	}
	chosen := make([]bool, len(distinct))
	var selected []*Team
	var selIdx []int
	for len(selected) < k {
		bestIdx := -1
		var bestScore float64
		for i, tm := range distinct {
			if chosen[i] {
				continue
			}
			overlap := 0.0
			for _, j := range selIdx {
				inter := 0
				for u := range sets[i] {
					if sets[j][u] {
						inter++
					}
				}
				union := len(sets[i]) + len(sets[j]) - inter
				if union > 0 {
					if jac := float64(inter) / float64(union); jac > overlap {
						overlap = jac
					}
				}
			}
			score := float64(tm.Cost) + lambda*overlap
			if bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		chosen[bestIdx] = true
		selected = append(selected, distinct[bestIdx])
		selIdx = append(selIdx, bestIdx)
	}
	for _, tm := range selected {
		tm.SeedsTried = tried
		tm.SeedsSucceeded = succeeded
	}
	return selected, nil
}

// referenceTopKSucceeded is top-K's SeedsSucceeded, replayed over a
// full-growth sweep (the successful teams in seed order, key giving
// each one's member set): a team counts when fewer than k distinct
// member sets are held, or when, c being the k-th cheapest held cost,
// it costs at most c or less than c + lambda. A counted team is held
// unless its member set already is.
func referenceTopKSucceeded(teams []*Team, k int, lambda float64, key func([]sgraph.NodeID) string) int {
	held := map[string]bool{}
	var costs []int32
	succeeded := 0
	for _, tm := range teams {
		if len(costs) >= k {
			if over := tm.Cost - costs[k-1]; over > 0 && float64(over) >= lambda {
				continue
			}
		}
		succeeded++
		if s := key(tm.Members); !held[s] {
			held[s] = true
			costs = append(costs, tm.Cost)
			sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
		}
	}
	return succeeded
}

// ---------------------------------------------------------------------------
// Agreement property suites.

// constrainedEngines builds the lazy and matrix engines plus sharded
// variants at every interesting shard geometry — single-row shards
// (every row on a boundary), an odd mid-size, a shard larger than the
// graph, and exactly one shard — all with a tight residency bound so
// eviction churns during the sweep.
func constrainedEngines(t *testing.T, k compat.Kind, g *sgraph.Graph) map[string]compat.Relation {
	t.Helper()
	engines := map[string]compat.Relation{
		"lazy":   mustNewRelation(k, g, compat.Options{}),
		"matrix": mustMatrix(t, k, g),
	}
	for _, rows := range []int{1, 7, 64, g.NumNodes()} {
		sm := mustSharded(t, k, g, compat.ShardedOptions{ShardRows: rows, MaxResidentShards: 2})
		engines[fmt.Sprintf("sharded-%d", rows)] = sm
		t.Cleanup(func() { sm.Close() })
	}
	return engines
}

// randomConstraints draws a small constraint set over n users:
// sometimes includes, sometimes excludes, sometimes a cap — and
// sometimes contradictions (overlapping lists, every-holder
// exclusions), which the error-agreement assertions cover.
func randomConstraints(rng *rand.Rand, n int) Constraints {
	var c Constraints
	if rng.Intn(2) == 0 {
		for i := 0; i < 1+rng.Intn(2); i++ {
			c.MustInclude = append(c.MustInclude, sgraph.NodeID(rng.Intn(n)))
		}
	}
	if rng.Intn(2) == 0 {
		for i := 0; i < 1+rng.Intn(3); i++ {
			c.MustExclude = append(c.MustExclude, sgraph.NodeID(rng.Intn(n)))
		}
	}
	if rng.Intn(3) == 0 {
		c.MaxTeamSize = 1 + rng.Intn(5)
	}
	return c
}

// checkConstraints asserts a returned team actually satisfies cons.
func checkConstraints(t *testing.T, label string, tm *Team, cons Constraints) {
	t.Helper()
	members := map[sgraph.NodeID]bool{}
	for _, u := range tm.Members {
		members[u] = true
	}
	for _, u := range cons.MustInclude {
		if !members[u] {
			t.Fatalf("%s: required member %d missing from %v", label, u, tm.Members)
		}
	}
	for _, u := range cons.MustExclude {
		if members[u] {
			t.Fatalf("%s: excluded member %d present in %v", label, u, tm.Members)
		}
	}
	if cons.MaxTeamSize > 0 && len(tm.Members) > cons.MaxTeamSize {
		t.Fatalf("%s: %d members exceed cap %d: %v", label, len(tm.Members), cons.MaxTeamSize, tm.Members)
	}
}

// sameErrClass asserts the solver's error agrees with the reference's
// down to the ErrInfeasible / ErrNoTeam distinction.
func sameErrClass(t *testing.T, label string, wantErr, gotErr error) bool {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference err=%v solver err=%v", label, wantErr, gotErr)
	}
	if wantErr == nil {
		return true
	}
	if errors.Is(wantErr, ErrInfeasible) != errors.Is(gotErr, ErrInfeasible) {
		t.Fatalf("%s: infeasibility class diverged: reference %v, solver %v", label, wantErr, gotErr)
	}
	if !errors.Is(gotErr, ErrNoTeam) {
		t.Fatalf("%s: unexpected solver error %v", label, gotErr)
	}
	return false
}

// TestConstrainedSolverMatchesReference is the acceptance property of
// constrained formation: for every {constraints} × {skill policy} ×
// {user policy} × {cost} × {engine, including sharded at shard heights
// 1, 7, 64 and n} × {1, 4 workers}, the solver's answer — team, cost,
// telemetry, or error class — equals the naive reference's, through
// Form and the warm FormInto path. The last trial has fewer users than
// graph nodes, with holder sets one word shorter than the packed rows.
func TestConstrainedSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1709))
	for trial := 0; trial < 4; trial++ {
		n := 12 + rng.Intn(16)
		users := n
		if trial == 3 {
			n, users = 70, 60 // 1 holder word against 2 row words
		}
		g := randomTeamGraph(rng, n, 4*n, 0.25)
		assign := randomAssignment(t, rng, users, 6)
		task, err := skills.RandomTask(rng, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		consList := []Constraints{
			{}, // unconstrained rides along as the regression anchor
			randomConstraints(rng, users),
			randomConstraints(rng, users),
			{MustInclude: []sgraph.NodeID{sgraph.NodeID(rng.Intn(users))}, MaxTeamSize: 2},
			{MustExclude: assign.Holders(task[0])}, // every holder of a task skill
		}
		for _, kind := range []compat.Kind{compat.SPO, compat.NNE} {
			for engine, rel := range constrainedEngines(t, kind, g) {
				for ci, cons := range consList {
					for _, sp := range []SkillPolicy{RarestFirst, LeastCompatibleFirst} {
						for _, up := range []UserPolicy{MinDistance, MostCompatible} {
							for _, ck := range []CostKind{Diameter, SumDistance} {
								opts := Options{Skill: sp, User: up, Cost: ck, Constraints: cons}
								label := fmt.Sprintf("t%d/%s/%s/cons%d/%v/%v/%v", trial, kind, engine, ci, sp, up, ck)
								want, wantErr := referenceConstrainedForm(rel, assign, task, opts)
								for _, workers := range []int{1, 4} {
									s := NewSolver(rel, assign, SolverOptions{Workers: workers, PlanCache: 4})
									got, gotErr := formNew(s, task, opts)
									if !sameErrClass(t, label, wantErr, gotErr) {
										continue
									}
									sameTeam(t, label, want, got)
									checkConstraints(t, label, got, cons)

									// Warm path: the cached plan's FormInto
									// must agree on reused buffers too.
									plan, err := s.Plan(task, opts)
									if err != nil {
										t.Fatalf("%s: Plan: %v", label, err)
									}
									var warm Team
									for i := 0; i < 2; i++ {
										if err := plan.FormIntoContext(context.Background(), &warm); err != nil {
											t.Fatalf("%s: FormInto: %v", label, err)
										}
									}
									sameTeam(t, label+"/warm", want, &warm)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTopKDiverseMatchesReference pins FormTopKDiverseContext to the
// naive re-implementation of its greedy selection on every engine and
// shard geometry of constrainedEngines and solverEngines, constrained
// and not. At lambda = 0 the solver skips the greedy scan and
// truncates the cost-sorted list, so the reference comparison there
// pins that shortcut to the greedy selection; the test additionally
// pins lambda = 0 to plain FormTopKContext (the documented
// degeneration). The lambdas cover the bound's edges: the smallest
// positive float, which a float ceiling of c + lambda would round
// away, and the integer 2, whose teams at exactly c + 2 tie with the
// bound; k = 10 exceeds the distinct teams of trials 0 to 5, whose
// loops then never bound, and some larger trials reach it. Trial 6 has
// 60 users over 70 graph nodes: holder sets one word shorter than the
// packed rows. Trials 7 to 12 are sparse 40-node graphs, whose many
// seeds grow teams of spread costs, so the bound drops teams that tie
// with or trail the k-th.
func TestTopKDiverseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1721))
	for trial := 0; trial < 13; trial++ {
		g, assign, task := randomInstance(rng)
		if trial >= 6 {
			nodes, users, edges := 70, 60, 4*70
			if trial > 6 {
				nodes, users, edges = 40, 40, 2*40
			}
			g = randomTeamGraph(rng, nodes, edges, 0.25)
			assign = randomAssignment(t, rng, users, 5)
			var err error
			if task, err = skills.RandomTask(rng, assign, 3); err != nil {
				t.Fatal(err)
			}
		}
		if len(task) == 0 {
			continue
		}
		engines := constrainedEngines(t, compat.SPO, g)
		more, cleanup := solverEngines(t, compat.SPO, g)
		t.Cleanup(cleanup)
		engines["sharded-4/2"] = more["sharded"]
		for _, cons := range []Constraints{{}, randomConstraints(rng, assign.NumUsers())} {
			opts := Options{Constraints: cons}
			for engine, rel := range engines {
				for _, lambda := range []float64{0, math.SmallestNonzeroFloat64, 0.5, 0.75, 2, 3} {
					for _, k := range []int{1, 3, 10} {
						label := fmt.Sprintf("t%d/%s/l%v/k%d", trial, engine, lambda, k)
						want, wantErr := referenceTopKDiverse(rel, assign, task, opts, k, lambda)
						for _, workers := range []int{1, 3} {
							s := NewSolver(rel, assign, SolverOptions{Workers: workers, PlanCache: 4})
							got, gotErr := s.FormTopKDiverseContext(context.Background(), task, opts, k, lambda)
							if !sameErrClass(t, label, wantErr, gotErr) {
								continue
							}
							if len(want) != len(got) {
								t.Fatalf("%s: %d teams vs %d", label, len(want), len(got))
							}
							for i := range want {
								sameTeam(t, fmt.Sprintf("%s/[%d]", label, i), want[i], got[i])
								checkConstraints(t, label, got[i], cons)
							}
							if lambda == 0 && gotErr == nil {
								// The degeneration contract: lambda = 0 is
								// FormTopKContext in its exact order.
								plain, err := s.FormTopKContext(context.Background(), task, opts, k)
								if err != nil {
									t.Fatalf("%s: FormTopKContext: %v", label, err)
								}
								if len(plain) != len(got) {
									t.Fatalf("%s: lambda=0 gave %d teams, FormTopKContext %d", label, len(got), len(plain))
								}
								for i := range plain {
									sameTeam(t, label+"/degenerate", plain[i], got[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFormTopKDiverseValidation pins the parameter validation shared
// by the solver and plan entry points.
func TestFormTopKDiverseValidation(t *testing.T) {
	f := newFixture(t)
	s := NewSolver(nne(t, f.g), f.assign, SolverOptions{Workers: 1})
	if _, err := s.FormTopKDiverseContext(context.Background(), f.task, Options{}, 0, 1); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := s.FormTopKDiverseContext(context.Background(), f.task, Options{}, 3, -0.5); err == nil {
		t.Fatal("negative lambda accepted")
	}
	nan := 0.0
	if _, err := s.FormTopKDiverseContext(context.Background(), f.task, Options{}, 3, nan/nan); err == nil {
		t.Fatal("NaN lambda accepted")
	}
	// cost + Inf·0 is NaN: an infinite lambda would silently return
	// plain top-K, so it is refused like NaN.
	if _, err := s.FormTopKDiverseContext(context.Background(), f.task, Options{}, 3, math.Inf(1)); err == nil {
		t.Fatal("+Inf lambda accepted")
	}
	plan, err := s.Plan(f.task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.FormTopKDiverseContext(context.Background(), -1, 1); err == nil {
		t.Fatal("plan-level k = -1 accepted")
	}
}

// TestFormBatchSpecsMatchesForm: per-spec constraints must answer
// exactly like a sequential Form loop with the same constraints on the
// options — including infeasible specs mapping to nil teams — at every
// worker count.
func TestFormBatchSpecsMatchesForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1733))
	n := 24
	g := randomTeamGraph(rng, n, 5*n, 0.3)
	assign := randomAssignment(t, rng, n, 6)
	var specs []TaskSpec
	specs = append(specs, TaskSpec{Task: skills.NewTask()}) // empty task rides along
	for i := 0; i < 10; i++ {
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, TaskSpec{Task: task, Constraints: randomConstraints(rng, n)})
	}
	// One spec whose constraints are contradictory by construction.
	infTask, err := skills.RandomTask(rng, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, TaskSpec{Task: infTask, Constraints: Constraints{MustExclude: assign.Holders(infTask[0])}})
	for _, kind := range []compat.Kind{compat.SPM, compat.NNE} {
		engines, cleanup := solverEngines(t, kind, g)
		for engine, rel := range engines {
			// The batch options carry their own constraints, which every
			// spec must replace — even the zero spec.
			opts := Options{Skill: LeastCompatibleFirst, User: MinDistance, Constraints: Constraints{MustExclude: []sgraph.NodeID{0}}}
			for _, workers := range []int{1, 4} {
				s := NewSolver(rel, assign, SolverOptions{Workers: workers, PlanCache: 8})
				batch, err := s.FormBatchSpecs(specs, opts)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", engine, workers, err)
				}
				if len(batch) != len(specs) {
					t.Fatalf("%s: %d results for %d specs", engine, len(batch), len(specs))
				}
				for i, spec := range specs {
					o := opts
					o.Constraints = spec.Constraints
					want, wantErr := formNew(s, spec.Task, o)
					if wantErr != nil {
						if !errors.Is(wantErr, ErrNoTeam) {
							t.Fatal(wantErr)
						}
						if batch[i] != nil {
							t.Fatalf("%s spec %d: batch found %v, Form found none", engine, i, batch[i].Members)
						}
						continue
					}
					if batch[i] == nil {
						t.Fatalf("%s spec %d: batch nil, Form found %v", engine, i, want.Members)
					}
					sameTeam(t, fmt.Sprintf("%s/spec%d", engine, i), want, batch[i])
					checkConstraints(t, fmt.Sprintf("%s/spec%d", engine, i), batch[i], spec.Constraints)
				}
			}
		}
		cleanup()
	}
}

// TestConstraintsValidateAndFingerprint pins the non-solve surface of
// Constraints: validation error classes, canonical fingerprints, and
// the plan cache treating spellings of one constraint set as one key.
func TestConstraintsValidateAndFingerprint(t *testing.T) {
	if err := (Constraints{}).Validate(10); err != nil {
		t.Fatalf("zero constraints rejected: %v", err)
	}
	if err := (Constraints{MaxTeamSize: -1}).Validate(10); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("negative cap: %v, want a plain error", err)
	}
	if err := (Constraints{MustInclude: []sgraph.NodeID{12}}).Validate(10); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("out-of-range include: %v, want a plain error", err)
	}
	if err := (Constraints{MustInclude: []sgraph.NodeID{3}, MustExclude: []sgraph.NodeID{3}}).Validate(10); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("required-and-excluded: %v, want ErrInfeasible", err)
	}
	if err := (Constraints{MustInclude: []sgraph.NodeID{1, 2, 3}, MaxTeamSize: 2}).Validate(10); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("cap below includes: %v, want ErrInfeasible", err)
	}
	// Out-of-range detection is skipped without a universe, but negative
	// ids are always garbage.
	if err := (Constraints{MustInclude: []sgraph.NodeID{1 << 20}}).Validate(0); err != nil {
		t.Fatalf("range check not skipped at numUsers=0: %v", err)
	}
	if err := (Constraints{MustExclude: []sgraph.NodeID{-4}}).Validate(0); err == nil {
		t.Fatal("negative id accepted at numUsers=0")
	}

	a := Constraints{MustInclude: []sgraph.NodeID{5, 1, 5}, MustExclude: []sgraph.NodeID{9, 2, 2}, MaxTeamSize: 4}
	b := Constraints{MustInclude: []sgraph.NodeID{1, 5}, MustExclude: []sgraph.NodeID{2, 9}, MaxTeamSize: 4}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("spellings fingerprint differently: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if (Constraints{}).Fingerprint() != "" {
		t.Fatalf("zero fingerprint = %q, want empty", (Constraints{}).Fingerprint())
	}

	// Two spellings of one constraint set share a plan-cache entry.
	f := newFixture(t)
	s := NewSolver(nne(t, f.g), f.assign, SolverOptions{Workers: 1, PlanCache: 8})
	optsA := Options{Constraints: Constraints{MustExclude: []sgraph.NodeID{3, 1, 3}, MaxTeamSize: 4}}
	optsB := Options{Constraints: Constraints{MustExclude: []sgraph.NodeID{1, 3}, MaxTeamSize: 4}}
	if _, err := formNew(s, f.task, optsA); err != nil && !errors.Is(err, ErrNoTeam) {
		t.Fatal(err)
	}
	if _, err := formNew(s, f.task, optsB); err != nil && !errors.Is(err, ErrNoTeam) {
		t.Fatal(err)
	}
	st := s.PlanCacheStats()
	if st.Misses != 1 || st.Hits+st.NegativeHits != 1 {
		t.Fatalf("spellings did not share a cache entry: %+v", st)
	}
	// A different lambda is a different cache key even for one task.
	if _, err := s.FormTopKDiverseContext(context.Background(), f.task, optsA, 2, 1.5); err != nil && !errors.Is(err, ErrNoTeam) {
		t.Fatal(err)
	}
	if st2 := s.PlanCacheStats(); st2.Misses != 2 {
		t.Fatalf("diverse lambda did not miss separately: %+v", st2)
	}
}

// TestConstrainedIncludesOnly: includes that cover the whole task (and
// the empty-task-with-includes degenerate) return exactly the include
// set, priced like any team, on every engine.
func TestConstrainedIncludesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1741))
	n := 14
	g := randomTeamGraph(rng, n, 6*n, 0.1)
	assign := randomAssignment(t, rng, n, 4)
	for engine, rel := range constrainedEngines(t, compat.SPO, g) {
		// Find a user with at least one skill; its whole skill set as the
		// task is then fully covered by including it.
		var u sgraph.NodeID = -1
		for v := 0; v < n; v++ {
			if len(assign.UserSkills(sgraph.NodeID(v))) > 0 {
				u = sgraph.NodeID(v)
				break
			}
		}
		if u == -1 {
			t.Skip("no skilled user in fixture")
		}
		task := skills.NewTask(assign.UserSkills(u)...)
		opts := Options{Constraints: Constraints{MustInclude: []sgraph.NodeID{u}}}
		s := NewSolver(rel, assign, SolverOptions{Workers: 1})
		got, err := formNew(s, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if len(got.Members) != 1 || got.Members[0] != u || got.Cost != 0 {
			t.Fatalf("%s: includes-only team = %+v, want just user %d at cost 0", engine, got, u)
		}
		if got.SeedsTried != 1 || got.SeedsSucceeded != 1 {
			t.Fatalf("%s: telemetry %d/%d, want 1/1", engine, got.SeedsSucceeded, got.SeedsTried)
		}
		// Empty task with includes: the team is the includes themselves.
		empty, err := formNew(s, skills.NewTask(), opts)
		if err != nil {
			t.Fatalf("%s: empty-task include: %v", engine, err)
		}
		if len(empty.Members) != 1 || empty.Members[0] != u {
			t.Fatalf("%s: empty-task include team = %v", engine, empty.Members)
		}
	}
}
