package team

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// TestBoundedSeedLoopMatchesFullGrowth is the exactness property of
// the branch-and-bound seed loop. Form, the warm FormInto path and
// FormBatchSpecs, at 1 and 2 workers, must return exactly the team,
// cost and error class of the full-growth reference (every seed grown
// in full, then priced with CostWith), and SeedsSucceeded must equal
// the reference's count of record-setting seeds. It covers skill ×
// user × cost × engine (lazy, matrix, sharded at shard heights 1, 7,
// 64 and n), unconstrained and under MustInclude, MustExclude and
// MaxTeamSize. The instances have ~10 seeds each, and the test fails
// unless the bound actually cut some sweeps short.
func TestBoundedSeedLoopMatchesFullGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(1801))
	cases, pruned := 0, 0
	for trial := 0; trial < 3; trial++ {
		n := 30 + rng.Intn(16)
		g := randomTeamGraph(rng, n, 3*n, 0.25)
		assign := randomAssignment(t, rng, n, 5)
		task, err := skills.RandomTask(rng, assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		consList := []Constraints{
			{},
			randomConstraints(rng, n),
			{MaxTeamSize: 3},
			{MustInclude: []sgraph.NodeID{sgraph.NodeID(rng.Intn(n))}},
			{MustExclude: assign.Holders(task[rng.Intn(len(task))])[:1]},
		}
		for _, kind := range []compat.Kind{compat.SPM, compat.NNE} {
			for engine, rel := range constrainedEngines(t, kind, g) {
				for ci, cons := range consList {
					for _, sp := range []SkillPolicy{RarestFirst, LeastCompatibleFirst} {
						for _, up := range []UserPolicy{MinDistance, MostCompatible} {
							for _, ck := range []CostKind{Diameter, SumDistance} {
								opts := Options{Skill: sp, User: up, Cost: ck, Constraints: cons}
								label := fmt.Sprintf("t%d/%s/%s/cons%d/%v/%v/%v", trial, kind, engine, ci, sp, up, ck)
								teams, _, _ := referenceConstrainedFormAll(rel, assign, task, opts)
								want, wantErr := referenceConstrainedForm(rel, assign, task, opts)
								cases++
								if wantErr == nil && want.SeedsSucceeded < len(teams) {
									pruned++
								}
								for _, workers := range []int{1, 2} {
									wlabel := fmt.Sprintf("%s/w%d", label, workers)
									checkBoundedSolver(t, wlabel, NewSolver(rel, assign, SolverOptions{Workers: workers, PlanCache: 4}), task, opts, want, wantErr)
								}
							}
						}
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatalf("the bound never cut a sweep short in %d cases: the instances do not exercise it", cases)
	}
	t.Logf("%d of %d cases abandoned at least one seed that full growth prices", pruned, cases)
}

// checkBoundedSolver asserts Form, warm FormInto and FormBatchSpecs on
// s agree with the full-growth reference answer (want, wantErr).
func checkBoundedSolver(t *testing.T, label string, s *Solver, task skills.Task, opts Options, want *Team, wantErr error) {
	t.Helper()
	got, gotErr := formNew(s, task, opts)
	batchOpts := opts
	batchOpts.Constraints = Constraints{}
	batch, err := s.FormBatchSpecs([]TaskSpec{{Task: task, Constraints: opts.Constraints}}, batchOpts)
	if err != nil {
		t.Fatalf("%s: FormBatchSpecs: %v", label, err)
	}
	if !sameErrClass(t, label, wantErr, gotErr) {
		if batch[0] != nil {
			t.Fatalf("%s: batch found %v, the reference none", label, batch[0].Members)
		}
		return
	}
	sameTeam(t, label, want, got)
	if batch[0] == nil {
		t.Fatalf("%s: batch found no team, the reference %v", label, want.Members)
	}
	sameTeam(t, label+"/batch", want, batch[0])
	plan, err := s.Plan(task, opts)
	if err != nil {
		t.Fatalf("%s: Plan: %v", label, err)
	}
	var warm Team
	for i := 0; i < 2; i++ { // the second call runs on warm buffers
		if err := plan.FormIntoContext(context.Background(), &warm); err != nil {
			t.Fatalf("%s: FormInto: %v", label, err)
		}
	}
	sameTeam(t, label+"/warm", want, &warm)
}

// TestBoundedSeedLoopRandomUserRng: RandomUser is never bounded, so a
// solve consumes the caller's Rng exactly as the full-growth
// reference does — the same team, and the same next draw afterwards —
// through Form and FormBatch, on lazy and packed engines, for both
// costs, unconstrained and capped.
func TestBoundedSeedLoopRandomUserRng(t *testing.T) {
	rng := rand.New(rand.NewSource(1803))
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(16)
		g := randomTeamGraph(rng, n, 3*n, 0.25)
		assign := randomAssignment(t, rng, n, 5)
		task, err := skills.RandomTask(rng, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		for engine, rel := range map[string]compat.Relation{
			"lazy":   compat.MustNew(compat.SPM, g, compat.Options{}),
			"matrix": mustMatrix(compat.SPM, g),
		} {
			for _, ck := range []CostKind{Diameter, SumDistance} {
				for ci, cons := range []Constraints{{}, {MaxTeamSize: 3}} {
					label := fmt.Sprintf("t%d/%s/%v/cons%d", trial, engine, ck, ci)
					seed := int64(700 + trial)
					refRng := rand.New(rand.NewSource(seed))
					want, wantErr := referenceConstrainedForm(rel, assign, task, Options{User: RandomUser, Rng: refRng, Cost: ck, Constraints: cons})
					wantNext := refRng.Int63()

					s := NewSolver(rel, assign, SolverOptions{Workers: 2})
					formRng := rand.New(rand.NewSource(seed))
					got, gotErr := formNew(s, task, Options{User: RandomUser, Rng: formRng, Cost: ck, Constraints: cons})
					if sameErrClass(t, label, wantErr, gotErr) {
						sameTeam(t, label, want, got)
					}
					if next := formRng.Int63(); next != wantNext {
						t.Fatalf("%s: Form left the Rng at draw %d, the reference at %d", label, next, wantNext)
					}

					batchRng := rand.New(rand.NewSource(seed))
					batch, err := s.FormBatchSpecs([]TaskSpec{{Task: task, Constraints: cons}}, Options{User: RandomUser, Rng: batchRng, Cost: ck})
					if err != nil {
						t.Fatalf("%s: FormBatchSpecs: %v", label, err)
					}
					if (wantErr == nil) != (batch[0] != nil) {
						t.Fatalf("%s: batch team %v, reference err %v", label, batch[0], wantErr)
					}
					if wantErr == nil {
						sameTeam(t, label+"/batch", want, batch[0])
					}
					if next := batchRng.Int63(); next != wantNext {
						t.Fatalf("%s: FormBatch left the Rng at draw %d, the reference at %d", label, next, wantNext)
					}
				}
			}
		}
	}
}
