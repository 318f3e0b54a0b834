package team

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// seedVisit is one seed of a replayed seed loop: the bound it met and
// whether the screen dropped it before it joined.
type seedVisit struct {
	seed     sgraph.NodeID
	bound    int32
	screened bool
}

// replaySeeds runs formSeq's seed loop on sc, step for step, and
// records every seed's visit. It returns the best cost and the number
// of record-setting seeds, which must match the solver's answer.
func replaySeeds(p *TaskPlan, sc *scratch) (visits []seedVisit, best int32, succeeded int, err error) {
	best = noBound
	sc.reach = nil
	for _, seed := range p.seeds {
		v := seedVisit{seed: seed, bound: best}
		v.screened = p.opts.User != RandomUser && best <= screenBound && !p.canBeat(sc, seed, best)
		visits = append(visits, v)
		if v.screened {
			continue
		}
		cost, ok, err := p.grow(sc, seed, best)
		if err != nil {
			return nil, 0, 0, err
		}
		if ok {
			best = cost
			succeeded++
		}
	}
	return visits, best, succeeded, nil
}

// checkScreen replays the seed loop of task under opts on s and checks
// that every seed the screen dropped fails when grown without the
// screen at the bound it met, and that the replay answers as the
// solver does. It adds the dropped seeds to dropped, by bound.
func checkScreen(t *testing.T, label string, s *Solver, task skills.Task, opts Options, dropped map[int32]int) {
	t.Helper()
	p, err := s.Plan(task, opts)
	if err != nil {
		if !errors.Is(err, ErrNoTeam) {
			t.Fatalf("%s: Plan: %v", label, err)
		}
		return
	}
	if p.empty {
		return
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	visits, best, succeeded, err := replaySeeds(p, sc)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	for _, v := range visits {
		if !v.screened {
			continue
		}
		dropped[v.bound]++
		if cost, ok, err := p.grow(sc, v.seed, v.bound); err != nil || ok {
			t.Fatalf("%s: seed %d was screened at bound %d, but grows to cost %d (ok=%v, err=%v)",
				label, v.seed, v.bound, cost, ok, err)
		}
	}
	var got Team
	err = p.FormIntoContext(context.Background(), &got)
	if succeeded == 0 {
		if !errors.Is(err, ErrNoTeam) {
			t.Fatalf("%s: replay found no team, the solver %v (err %v)", label, got.Members, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: replay found a team of cost %d, the solver: %v", label, best, err)
	}
	if got.Cost != best || got.SeedsSucceeded != succeeded {
		t.Fatalf("%s: replay cost %d with %d records, solver cost %d with %d", label, best, succeeded, got.Cost, got.SeedsSucceeded)
	}
}

// TestSeedScreenIsExact: every seed the bounded loop's screen drops
// fails when grown without the screen at the bound it met, so the
// screen changes no answer. It covers skill × user × cost policies,
// unconstrained and under MustInclude, MustExclude and MaxTeamSize, on
// the lazy engine, the matrix and sharded engines at heights 1, 7, 64
// and n, over random graphs with a one-word skill universe and the
// Epinions stand-in, whose 523 skills span nine words. It fails unless
// the screen dropped seeds at bounds 0, 1, 2 and 3.
func TestSeedScreenIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2504))
	dropped := map[int32]int{}
	userPolicies := []UserPolicy{MinDistance, MostCompatible}
	for trial := 0; trial < 3; trial++ {
		n := 30 + rng.Intn(16)
		g := randomTeamGraph(rng, n, 3*n, 0.25)
		assign := randomAssignment(t, rng, n, 5)
		for _, size := range []int{2, 4} {
			task, err := skills.RandomTask(rng, assign, size)
			if err != nil {
				t.Fatal(err)
			}
			consList := []Constraints{
				{},
				{MaxTeamSize: 3},
				{MustInclude: []sgraph.NodeID{sgraph.NodeID(rng.Intn(n))}},
				{MustExclude: assign.Holders(task[rng.Intn(len(task))])[:1]},
			}
			for _, kind := range []compat.Kind{compat.SPM, compat.NNE} {
				for engine, rel := range constrainedEngines(t, kind, g) {
					s := NewSolver(rel, assign, SolverOptions{Workers: 1})
					for ci, cons := range consList {
						for _, sp := range []SkillPolicy{RarestFirst, LeastCompatibleFirst} {
							for _, up := range userPolicies {
								for _, ck := range []CostKind{Diameter, SumDistance} {
									opts := Options{Skill: sp, User: up, Cost: ck, Constraints: cons}
									label := fmt.Sprintf("t%d/k%d/%s/%s/cons%d/%v/%v/%v", trial, size, kind, engine, ci, sp, up, ck)
									checkScreen(t, label, s, task, opts, dropped)
								}
							}
						}
					}
				}
			}
		}
	}

	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]compat.Relation{
		"lazy":   compat.MustNew(compat.SPM, d.Graph, compat.Options{}),
		"matrix": mustMatrix(t, compat.SPM, d.Graph),
	}
	var tasks []skills.Task
	for len(tasks) < 12 {
		task, err := skills.RandomTask(rng, d.Assign, 3+len(tasks)%3)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	for engine, rel := range engines {
		s := NewSolver(rel, d.Assign, SolverOptions{Workers: 1})
		for i, task := range tasks {
			for _, ck := range []CostKind{Diameter, SumDistance} {
				opts := Options{Skill: LeastCompatibleFirst, User: MinDistance, Cost: ck}
				checkScreen(t, fmt.Sprintf("epinions/%s/task%d/%v", engine, i, ck), s, task, opts, dropped)
			}
		}
	}
	for _, bound := range []int32{0, 1, 2, 3} {
		if dropped[bound] == 0 {
			t.Fatalf("the screen dropped no seed at bound %d (dropped by bound: %v): the instances do not exercise it", bound, dropped)
		}
	}
	t.Logf("seeds dropped by bound: %v", dropped)
}

// TestReachIndexAfterMutation: a mutation publishes a new graph
// snapshot, so the next solve screens seeds with a new reach index
// built from it (skills' TestReachIndexMatchesBFS checks such an index
// against BFS). After each mutation of the lazy and the sharded engine
// the assignment's index for the engine's graph must be new, the
// solver must answer exactly as the full-growth reference on the
// mutated relation, and every seed it screens must fail when grown
// there. Mutations that add edges bring skills into reach, so a stale
// index would drop seeds that now win.
func TestReachIndexAfterMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2505))
	const n = 36
	g := randomTeamGraph(rng, n, 2*n, 0.25)
	assign := randomAssignment(t, rng, n, 5)
	var tasks []skills.Task
	for len(tasks) < 4 {
		task, err := skills.RandomTask(rng, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	sharded := mustSharded(t, compat.SPM, g, compat.ShardedOptions{ShardRows: 7})
	t.Cleanup(func() { sharded.Close() })
	engines := map[string]compat.MutableRelation{
		"lazy":    compat.MustNew(compat.SPM, g, compat.Options{}).(compat.MutableRelation),
		"sharded": sharded,
	}
	dropped := map[int32]int{}
	for engine, rel := range engines {
		s := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 8})
		mrng := rand.New(rand.NewSource(2506))
		for step := 0; step < 12; step++ {
			before := assign.Reach(rel.Graph())
			cur := rel.Graph()
			u, v := sgraph.NodeID(mrng.Intn(n)), sgraph.NodeID(mrng.Intn(n))
			if u == v {
				continue
			}
			m := sgraph.Mutation{Op: sgraph.MutAdd, U: u, V: v, Sign: sgraph.Positive}
			if cur.HasEdge(u, v) {
				m.Op = sgraph.MutRemove
			}
			if _, err := rel.Mutate(m); err != nil {
				t.Fatalf("%s step %d: %v", engine, step, err)
			}
			label := fmt.Sprintf("%s/step%d", engine, step)
			for i, task := range tasks {
				for _, ck := range []CostKind{Diameter, SumDistance} {
					opts := Options{Skill: RarestFirst, User: MinDistance, Cost: ck}
					want, wantErr := referenceConstrainedForm(rel, assign, task, opts)
					got, gotErr := formNew(s, task, opts)
					tlabel := fmt.Sprintf("%s/task%d/%v", label, i, ck)
					if sameErrClass(t, tlabel, wantErr, gotErr) {
						sameTeam(t, tlabel, want, got)
					}
					checkScreen(t, tlabel, s, task, opts, dropped)
				}
			}
			if assign.Reach(rel.Graph()) == before {
				t.Fatalf("%s: the mutated graph reuses the old graph's reach index", label)
			}
		}
	}
	if len(dropped) == 0 {
		t.Fatal("the screen dropped no seed: the instance does not exercise it")
	}
}

// TestSeedsFailedErrorText: the all-seeds-failed error formats only
// when read, to exactly the text the wrapped fmt.Errorf form had, and
// still matches ErrNoTeam.
func TestSeedsFailedErrorText(t *testing.T) {
	task := skills.Task{3, 17, 40}
	var err error = &seedsFailedError{seeds: 12, task: task}
	want := fmt.Errorf("%w: all %d seeds failed for task %v", ErrNoTeam, 12, task)
	if err.Error() != want.Error() {
		t.Fatalf("message %q, want %q", err.Error(), want.Error())
	}
	if !errors.Is(err, ErrNoTeam) || errors.Is(err, ErrInfeasible) {
		t.Fatalf("errors.Is: ErrNoTeam %v, ErrInfeasible %v", errors.Is(err, ErrNoTeam), errors.Is(err, ErrInfeasible))
	}
}
