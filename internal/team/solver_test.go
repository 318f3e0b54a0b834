package team

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// ---------------------------------------------------------------------------
// Reference implementation: the pre-solver Algorithm 2, kept here as a
// deliberately naive, map-based oracle. The solver must reproduce its
// results exactly — same members, same costs, same telemetry — for
// every policy combination on every engine.

func referenceFormAll(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options) ([]*Team, int, error) {
	if opts.User == RandomUser && opts.Rng == nil {
		return nil, 0, errors.New("reference: RandomUser needs Rng")
	}
	if len(task) == 0 {
		return nil, 0, nil
	}
	for _, s := range task {
		if assign.NumHolders(s) == 0 {
			return nil, 0, ErrNoTeam
		}
	}
	order, err := referenceSkillOrder(rel, assign, task, opts.Skill)
	if err != nil {
		return nil, 0, err
	}
	var poolDegree map[sgraph.NodeID]int
	if opts.User == MostCompatible {
		poolDegree = map[sgraph.NodeID]int{}
		pool := taskPool(assign, task)
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
	seeds := assign.Holders(order[0])
	if opts.MaxSeeds > 0 && len(seeds) > opts.MaxSeeds {
		seeds = seeds[:opts.MaxSeeds]
	}
	var teams []*Team
	tried := 0
	for _, seed := range seeds {
		tried++
		members, ok, err := referenceGrow(rel, assign, task, order, seed, opts, poolDegree)
		if err != nil {
			return nil, tried, err
		}
		if !ok {
			continue
		}
		cost, err := CostWith(rel, members, opts.Cost)
		if err != nil {
			if errors.Is(err, errUndefinedDistance) {
				continue
			}
			return nil, tried, err
		}
		teams = append(teams, &Team{Members: members, Cost: cost})
	}
	return teams, tried, nil
}

func referenceSkillOrder(rel compat.Relation, assign *skills.Assignment, task skills.Task, policy SkillPolicy) ([]skills.SkillID, error) {
	key := map[skills.SkillID]int64{}
	switch policy {
	case RarestFirst:
		for _, s := range task {
			key[s] = int64(assign.NumHolders(s))
		}
	case LeastCompatibleFirst:
		deg, err := skillCompatDegrees(rel, assign, task)
		if err != nil {
			return nil, err
		}
		for _, s := range task {
			key[s] = deg[s]
		}
	}
	order := append([]skills.SkillID(nil), task...)
	sort.Slice(order, func(i, j int) bool {
		if key[order[i]] != key[order[j]] {
			return key[order[i]] < key[order[j]]
		}
		return order[i] < order[j]
	})
	return order, nil
}

func referenceGrow(rel compat.Relation, assign *skills.Assignment, task skills.Task, order []skills.SkillID, seed sgraph.NodeID, opts Options, poolDegree map[sgraph.NodeID]int) ([]sgraph.NodeID, bool, error) {
	members := []sgraph.NodeID{seed}
	covered := map[skills.SkillID]bool{}
	cover := func(u sgraph.NodeID) {
		for _, s := range assign.UserSkills(u) {
			if task.Contains(s) {
				covered[s] = true
			}
		}
	}
	cover(seed)
	for len(covered) < len(task) {
		var next skills.SkillID = -1
		for _, s := range order {
			if !covered[s] {
				next = s
				break
			}
		}
		var cands []sgraph.NodeID
	holders:
		for _, v := range assign.Holders(next) {
			for _, x := range members {
				ok, err := rel.Compatible(x, v)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue holders
				}
			}
			cands = append(cands, v)
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
		members = append(members, chosen)
		cover(chosen)
	}
	return members, true, nil
}

func referenceForm(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options) (*Team, error) {
	teams, tried, err := referenceFormAll(rel, assign, task, opts)
	if err != nil {
		return nil, err
	}
	if len(task) == 0 {
		return &Team{}, nil
	}
	return referenceBest(teams, tried)
}

// referenceBest reduces a full-growth sweep (every seed grown and
// priced, successful teams in seed order) to Form's answer: the
// cheapest team, first seed winning ties. SeedsSucceeded is the number
// of record-setting seeds — those whose team was strictly cheaper than
// every earlier one, the first priced team included — because the
// solver's bounded loop abandons every other seed before it completes.
func referenceBest(teams []*Team, tried int) (*Team, error) {
	var best *Team
	records := 0
	for _, tm := range teams {
		if best == nil || tm.Cost < best.Cost {
			best = tm
			records++
		}
	}
	if best == nil {
		return nil, ErrNoTeam
	}
	best.SeedsTried = tried
	best.SeedsSucceeded = records
	return best, nil
}

// referenceTopK reproduces the legacy FormTopK: dedup by member set in
// seed order (string keys), sort by (cost, comma-joined decimal key),
// slice to k, stamp aggregates, SeedsSucceeded replaying the bound
// schedule (referenceTopKSucceeded).
func referenceTopK(rel compat.Relation, assign *skills.Assignment, task skills.Task, opts Options, k int) ([]*Team, error) {
	teams, tried, err := referenceFormAll(rel, assign, task, opts)
	if err != nil {
		return nil, err
	}
	if len(task) == 0 {
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
		k := key(tm.Members)
		if seen[k] {
			continue
		}
		seen[k] = true
		distinct = append(distinct, tm)
	}
	sort.Slice(distinct, func(i, j int) bool {
		if distinct[i].Cost != distinct[j].Cost {
			return distinct[i].Cost < distinct[j].Cost
		}
		return key(distinct[i].Members) < key(distinct[j].Members)
	})
	if len(distinct) > k {
		distinct = distinct[:k]
	}
	succeeded := referenceTopKSucceeded(teams, k, 0, key)
	for _, tm := range distinct {
		tm.SeedsTried = tried
		tm.SeedsSucceeded = succeeded
	}
	return distinct, nil
}

// ---------------------------------------------------------------------------
// Agreement property suite.

// solverEngines builds the three engines over one graph; the caller
// must call the returned cleanup.
func solverEngines(tb testing.TB, k compat.Kind, g *sgraph.Graph) (map[string]compat.Relation, func()) {
	sharded := mustSharded(tb, k, g, compat.ShardedOptions{ShardRows: 4, MaxResidentShards: 2})
	return map[string]compat.Relation{
		"lazy":    mustNewRelation(k, g, compat.Options{}),
		"matrix":  mustMatrix(tb, k, g),
		"sharded": sharded,
	}, func() { sharded.Close() }
}

func sameTeam(t *testing.T, label string, want, got *Team) {
	t.Helper()
	if want.Cost != got.Cost {
		t.Fatalf("%s: cost %d vs %d (teams %v / %v)", label, want.Cost, got.Cost, want.Members, got.Members)
	}
	if len(want.Members) != len(got.Members) {
		t.Fatalf("%s: members %v vs %v", label, want.Members, got.Members)
	}
	for i := range want.Members {
		if want.Members[i] != got.Members[i] {
			t.Fatalf("%s: members %v vs %v", label, want.Members, got.Members)
		}
	}
	if want.SeedsTried != got.SeedsTried || want.SeedsSucceeded != got.SeedsSucceeded {
		t.Fatalf("%s: telemetry %d/%d vs %d/%d", label,
			want.SeedsSucceeded, want.SeedsTried, got.SeedsSucceeded, got.SeedsTried)
	}
}

// TestSolverMatchesReference drives the solver against the naive
// reference for every {skill policy} × {user policy} × {cost} ×
// {lazy, matrix, sharded} combination on random instances, at one
// worker and at several, through Form, the plan's FormInto warm path
// and FormBatch. This is the acceptance property of the rewrite:
// identical teams, costs and telemetry everywhere.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	kinds := []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBPH, compat.NNE}
	for trial := 0; trial < 4; trial++ {
		n := 12 + rng.Intn(20)
		g := randomTeamGraph(rng, n, 4*n, 0.25)
		assign := randomAssignment(t, rng, n, 6)
		task, err := skills.RandomTask(rng, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kinds {
			engines, cleanup := solverEngines(t, k, g)
			for engine, rel := range engines {
				for _, sp := range []SkillPolicy{RarestFirst, LeastCompatibleFirst} {
					for _, up := range []UserPolicy{MinDistance, MostCompatible} {
						for _, ck := range []CostKind{Diameter, SumDistance} {
							opts := Options{Skill: sp, User: up, Cost: ck}
							label := engine + "/" + sp.String() + "/" + up.String() + "/" + ck.String()
							want, wantErr := referenceForm(rel, assign, task, opts)
							for _, workers := range []int{1, 4} {
								s := NewSolver(rel, assign, SolverOptions{Workers: workers})
								got, gotErr := formNew(s, task, opts)
								if (wantErr == nil) != (gotErr == nil) {
									t.Fatalf("%s workers=%d: reference err=%v solver err=%v", label, workers, wantErr, gotErr)
								}
								if wantErr != nil {
									if !errors.Is(gotErr, ErrNoTeam) {
										t.Fatalf("%s: unexpected error %v", label, gotErr)
									}
									continue
								}
								sameTeam(t, label, want, got)

								// Warm path: a reused plan + FormInto must agree too.
								plan, err := s.Plan(task, opts)
								if err != nil {
									t.Fatal(err)
								}
								var warm Team
								for i := 0; i < 2; i++ { // twice: second call runs on warm buffers
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
			cleanup()
		}
	}
}

// TestSolverRandomUserMatchesReference: under RandomUser the solver
// must consume the caller's Rng in exactly the legacy order (seeds
// sequentially, candidates per pick), so identical seeds give
// identical teams.
func TestSolverRandomUserMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	for trial := 0; trial < 10; trial++ {
		g, assign, task := randomInstance(rng)
		if len(task) == 0 {
			continue
		}
		rel := mustMatrix(t, compat.SPO, g)
		want, wantErr := referenceForm(rel, assign, task, Options{User: RandomUser, Rng: rand.New(rand.NewSource(500 + int64(trial)))})
		// Several workers: RandomUser must still serialise.
		s := NewSolver(rel, assign, SolverOptions{Workers: 4})
		got, gotErr := formNew(s, task, Options{User: RandomUser, Rng: rand.New(rand.NewSource(500 + int64(trial)))})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: reference err=%v solver err=%v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		sameTeam(t, "random", want, got)
	}
}

// TestSolverTopKMatchesReference: FormTopK must keep the legacy
// ordering (cost, then the decimal member-set tie-break), dedup and
// aggregate telemetry at every worker count.
func TestSolverTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 12; trial++ {
		g, assign, task := randomInstance(rng)
		if len(task) == 0 {
			continue
		}
		for _, k := range []compat.Kind{compat.SPO, compat.NNE} {
			engines, cleanup := solverEngines(t, k, g)
			for engine, rel := range engines {
				want, wantErr := referenceTopK(rel, assign, task, Options{}, 4)
				for _, workers := range []int{1, 3} {
					s := NewSolver(rel, assign, SolverOptions{Workers: workers})
					got, gotErr := s.FormTopKContext(context.Background(), task, Options{}, 4)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("trial %d %s: reference err=%v solver err=%v", trial, engine, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if len(want) != len(got) {
						t.Fatalf("trial %d %s: %d teams vs %d", trial, engine, len(want), len(got))
					}
					for i := range want {
						sameTeam(t, engine+"/topk", want[i], got[i])
					}
				}
			}
			cleanup()
		}
	}
}

// TestFormTopKAggregateTelemetry pins the documented semantics: every
// returned team carries the same SeedsTried/SeedsSucceeded totals of
// the whole search, even after dedup and slicing to k, and
// SeedsSucceeded counts the seeds that priced below the bound in force
// when they ran, so it depends on k and lambda.
func TestFormTopKAggregateTelemetry(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	// Task {B, C}: two B-holder seeds, both succeed, two distinct teams.
	teams, err := formTopK(rel, f.assign, skills.NewTask(1, 2), Options{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) != 2 {
		t.Fatalf("teams = %d, want 2", len(teams))
	}
	for i, tm := range teams {
		if tm.SeedsTried != 2 || tm.SeedsSucceeded != 2 {
			t.Fatalf("team %d telemetry = %d/%d, want the aggregate 2/2 on every team",
				i, tm.SeedsSucceeded, tm.SeedsTried)
		}
	}
	// Slicing to k=1 keeps the totals: the first seed's team costs 2,
	// so the second grows under bound 3 and its cost-1 team succeeds.
	top1, err := formTopK(rel, f.assign, skills.NewTask(1, 2), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top1[0].SeedsTried != 2 || top1[0].SeedsSucceeded != 2 {
		t.Fatalf("top-1 telemetry = %d/%d, want 2/2", top1[0].SeedsSucceeded, top1[0].SeedsTried)
	}

	// On the path 0-1-2-3-4, task {x, y} seeds at the x-holders 1 and
	// 4: seed 1 holds both skills (cost 0), seed 4 joins y-holder 2
	// (cost 2). Once k teams are held, seed 4 grows under bound
	// 0 + max(1, ⌈lambda⌉) and succeeds only when that exceeds 2.
	g := sgraph.MustFromEdges(5, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
		{U: 3, V: 4, Sign: sgraph.Positive},
	})
	u, err := skills.NewUniverse([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, 5)
	a.MustAdd(1, 0)
	a.MustAdd(4, 0)
	a.MustAdd(0, 1)
	a.MustAdd(1, 1)
	a.MustAdd(2, 1)
	s := NewSolver(nne(t, g), a, SolverOptions{Workers: 1})
	for _, c := range []struct {
		k         int
		lambda    float64
		succeeded int
	}{{1, 0, 1}, {1, 2, 1}, {1, 2.5, 2}, {2, 0, 2}} {
		got, err := s.FormTopKDiverseContext(context.Background(), skills.NewTask(0, 1), Options{}, c.k, c.lambda)
		if err != nil {
			t.Fatal(err)
		}
		for i, tm := range got {
			if tm.SeedsTried != 2 || tm.SeedsSucceeded != c.succeeded {
				t.Fatalf("k=%d lambda=%v team %d telemetry = %d/%d, want %d/2",
					c.k, c.lambda, i, tm.SeedsSucceeded, tm.SeedsTried, c.succeeded)
			}
		}
	}
}

// TestFormBatchMatchesForm: batch entries must equal per-task Form
// results (nil where Form reports ErrNoTeam), at every worker count.
func TestFormBatchMatchesForm(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	n := 24
	g := randomTeamGraph(rng, n, 5*n, 0.3)
	assign := randomAssignment(t, rng, n, 6)
	var tasks []skills.Task
	tasks = append(tasks, skills.NewTask()) // empty task rides along
	for i := 0; i < 12; i++ {
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	for _, k := range []compat.Kind{compat.SPM, compat.NNE} {
		engines, cleanup := solverEngines(t, k, g)
		for engine, rel := range engines {
			for _, opts := range []Options{
				{Skill: LeastCompatibleFirst, User: MinDistance},
				{Skill: RarestFirst, User: MostCompatible, Cost: SumDistance},
			} {
				for _, workers := range []int{1, 4} {
					s := NewSolver(rel, assign, SolverOptions{Workers: workers})
					batch, err := s.FormBatch(tasks, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", engine, workers, err)
					}
					if len(batch) != len(tasks) {
						t.Fatalf("%s: %d results for %d tasks", engine, len(batch), len(tasks))
					}
					for i, task := range tasks {
						want, wantErr := form(rel, assign, task, opts)
						if wantErr != nil {
							if !errors.Is(wantErr, ErrNoTeam) {
								t.Fatal(wantErr)
							}
							if batch[i] != nil {
								t.Fatalf("%s task %d: batch found %v, Form found none", engine, i, batch[i].Members)
							}
							continue
						}
						if batch[i] == nil {
							t.Fatalf("%s task %d: batch nil, Form found %v", engine, i, want.Members)
						}
						sameTeam(t, engine+"/batch", want, batch[i])
					}
				}
			}
		}
		cleanup()
	}
}

// TestFormBatchRandomUserSequential: a batched RandomUser run must
// consume the shared Rng exactly like a sequential Form loop.
func TestFormBatchRandomUserSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	n := 20
	g := randomTeamGraph(rng, n, 5*n, 0.2)
	assign := randomAssignment(t, rng, n, 5)
	var tasks []skills.Task
	for i := 0; i < 8; i++ {
		task, err := skills.RandomTask(rng, assign, 2)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	rel := mustMatrix(t, compat.NNE, g)
	var want []*Team
	loopRng := rand.New(rand.NewSource(9000))
	for _, task := range tasks {
		tm, err := form(rel, assign, task, Options{User: RandomUser, Rng: loopRng})
		if err != nil {
			if errors.Is(err, ErrNoTeam) {
				want = append(want, nil)
				continue
			}
			t.Fatal(err)
		}
		want = append(want, tm)
	}
	s := NewSolver(rel, assign, SolverOptions{Workers: 4})
	got, err := s.FormBatch(tasks, Options{User: RandomUser, Rng: rand.New(rand.NewSource(9000))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if (want[i] == nil) != (got[i] == nil) {
			t.Fatalf("task %d: nil mismatch", i)
		}
		if want[i] != nil {
			sameTeam(t, "batch-random", want[i], got[i])
		}
	}
}

// TestPlanCanonicalisesTask: a raw, non-canonical skill list (unsorted
// and with duplicates) must solve exactly like its canonical form —
// the coverage tracking indexes by sorted task position, so Plan must
// not trust the skills.Task contract.
func TestPlanCanonicalisesTask(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1})
	want, err := formNew(s, skills.NewTask(0, 1, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := formNew(s, skills.Task{2, 0, 1, 0, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameTeam(t, "canonicalised", want, got)
}

// TestSkillCompatDegreesWordMismatch: an assignment whose user count
// straddles a word boundary below the graph's node count must still
// agree with the lazy computation (the packed rows are ANDed against
// the shorter holder words over their common prefix).
func TestSkillCompatDegreesWordMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	n := 70
	g := randomTeamGraph(rng, n, 4*n, 0.25)
	// 60 users over a 70-node graph: 1 holder word vs 2 row words.
	assign := randomAssignment(t, rng, 60, 5)
	task := skills.NewTask(0, 1, 2, 3)
	lazy := mustNewRelation(compat.NNE, g, compat.Options{})
	packed := mustMatrix(t, compat.NNE, g)
	want, err := skillCompatDegrees(lazy, assign, task)
	if err != nil {
		t.Fatal(err)
	}
	got, err := skillCompatDegrees(packed, assign, task)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range task {
		if want[s] != got[s] {
			t.Fatalf("cd(%d): lazy %d vs packed %d", s, want[s], got[s])
		}
	}
}

// TestSolverPlanValidation pins the plan-time error behaviour the
// wrappers rely on.
func TestSolverPlanValidation(t *testing.T) {
	f := newFixture(t)
	s := NewSolver(nne(t, f.g), f.assign, SolverOptions{})
	if _, err := s.Plan(f.task, Options{User: RandomUser}); err == nil {
		t.Fatal("RandomUser without Rng accepted")
	}
	if _, err := s.Plan(f.task, Options{User: UserPolicy(9)}); err == nil {
		t.Fatal("unknown user policy accepted")
	}
	if _, err := s.Plan(f.task, Options{Skill: SkillPolicy(9)}); err == nil {
		t.Fatal("unknown skill policy accepted")
	}
	plan, err := s.Plan(skills.NewTask(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tm Team
	err = plan.FormIntoContext(context.Background(), &tm)
	if err != nil || len(tm.Members) != 0 || tm.Cost != 0 {
		t.Fatalf("empty-task plan: %+v, %v", tm, err)
	}
	if len(plan.seeds) != 0 {
		t.Fatalf("empty-task seeds = %d", len(plan.seeds))
	}
	full, err := s.Plan(f.task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.task) != len(f.task) {
		t.Fatalf("plan task = %v", full.task)
	}
	if len(full.seeds) != 1 { // skill A has one holder
		t.Fatalf("seeds = %d, want 1", len(full.seeds))
	}
}

// TestSolverSkillOutOfRange: a task naming a skill outside the
// universe, at either bound, is refused with an error before any
// per-skill table is indexed. The error is not ErrNoTeam (the request
// is malformed, not infeasible) and is not cached, from every entry
// point: Plan, Form and FormBatch.
func TestSolverSkillOutOfRange(t *testing.T) {
	d, err := datasets.EpinionsSim(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMatrix(t, compat.SPM, d.Graph)
	s := NewSolver(m, d.Assign, SolverOptions{Workers: 2, PlanCache: 8})
	nu := skills.SkillID(d.Assign.Universe().Len())
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	held := d.Assign.SkillsWithHolders()[0]
	for _, task := range []skills.Task{{-1}, {nu}, {-1, held}, {held, nu}} {
		for i := 0; i < 2; i++ { // a cached error would answer the second round
			_, errPlan := s.Plan(task, opts)
			_, errForm := formNew(s, task, opts)
			_, errBatch := s.FormBatch([]skills.Task{task}, opts)
			for name, err := range map[string]error{"Plan": errPlan, "Form": errForm, "FormBatch": errBatch} {
				if err == nil || errors.Is(err, ErrNoTeam) {
					t.Fatalf("task %v: %s err = %v, want a non-ErrNoTeam error", task, name, err)
				}
			}
		}
	}
	if st := s.PlanCacheStats(); st.Size != 0 || st.Hits != 0 {
		t.Fatalf("out-of-range tasks reached the plan cache: %+v", st)
	}
}

// TestSolverMoreUsersThanNodes: an assignment over more users than the
// graph has nodes cannot index the relation's rows, so every entry
// point refuses it on both engines, under both the fused MinDistance
// pick and MostCompatible, with an error that is neither ErrNoTeam nor
// cached.
func TestSolverMoreUsersThanNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	g := randomTeamGraph(rng, 130, 4*130, 0.25)
	assign := randomAssignment(t, rng, 200, 5)
	task := skills.NewTask(0, 1, 2, 3)
	engines := map[string]compat.Relation{
		"lazy":   mustNewRelation(compat.SPM, g, compat.Options{}),
		"matrix": mustMatrix(t, compat.SPM, g),
	}
	for engine, rel := range engines {
		s := NewSolver(rel, assign, SolverOptions{Workers: 2, PlanCache: 8})
		for _, up := range []UserPolicy{MinDistance, MostCompatible} {
			opts := Options{Skill: LeastCompatibleFirst, User: up}
			for i := 0; i < 2; i++ { // a cached error would answer the second round
				_, errPlan := s.Plan(task, opts)
				var tm Team
				errForm := s.FormIntoContext(context.Background(), task, opts, &tm)
				_, errTopK := s.FormTopKContext(context.Background(), task, opts, 3)
				_, errBatch := s.FormBatch([]skills.Task{task}, opts)
				for name, err := range map[string]error{"Plan": errPlan, "FormIntoContext": errForm, "FormTopKContext": errTopK, "FormBatch": errBatch} {
					if err == nil || errors.Is(err, ErrNoTeam) {
						t.Fatalf("%s/%v: %s err = %v, want a non-ErrNoTeam error", engine, up, name, err)
					}
				}
			}
		}
		if st := s.PlanCacheStats(); st.Size != 0 || st.Hits != 0 {
			t.Fatalf("%s: refused queries reached the plan cache: %+v", engine, st)
		}
	}
}

// TestWarmFormIntoDoesNotAllocate: the acceptance criterion for the
// plan/scratch split — a warm FormInto on the matrix engine must not
// allocate, at one worker and at two (a single solve never spreads its
// seeds over the pool). (The CI alloc-smoke step asserts the same
// property via BenchmarkSolverForm/warm and warm-workers2.)
func TestWarmFormIntoDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI alloc smoke covers this")
	}
	rng := rand.New(rand.NewSource(141))
	n := 48
	g := randomTeamGraph(rng, n, 6*n, 0.2)
	assign := randomAssignment(t, rng, n, 8)
	task, err := skills.RandomTask(rng, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	rel := mustMatrix(t, compat.SPM, g)
	for _, workers := range []int{1, 2} {
		s := NewSolver(rel, assign, SolverOptions{Workers: workers})
		for _, opts := range []Options{
			{Skill: LeastCompatibleFirst, User: MinDistance},
			{Skill: RarestFirst, User: MostCompatible},
		} {
			plan, err := s.Plan(task, opts)
			if err != nil {
				t.Fatal(err)
			}
			var tm Team
			// Warm everything (scratch, member buffers) before measuring.
			if err := plan.FormIntoContext(context.Background(), &tm); err != nil {
				if errors.Is(err, ErrNoTeam) {
					continue
				}
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := plan.FormIntoContext(context.Background(), &tm); err != nil {
					t.Fatal(err)
				}
			})
			// A GC in mid-run can empty the scratch pool and force one
			// refill; anything beyond that is a real warm-path allocation.
			if allocs > 0.5 {
				t.Fatalf("workers=%d %v/%v: warm FormInto allocates %.1f allocs/op, want 0", workers, opts.Skill, opts.User, allocs)
			}
		}
	}
}
