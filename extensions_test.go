package signedteams_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	signedteams "repro"
)

func TestFormTopKFacade(t *testing.T) {
	g := signedteams.MustFromEdges(4, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 0, V: 2, Sign: signedteams.Positive},
		{U: 1, V: 3, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
	})
	univ, _ := signedteams.NewUniverse([]string{"a", "b"})
	assign := signedteams.NewAssignment(univ, 4)
	assign.MustAdd(1, 0)
	assign.MustAdd(2, 0)
	assign.MustAdd(3, 1)
	rel := signedteams.MustNewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	// Skill "b" is rarer (one holder), so it seeds the search and
	// there is a single seed; the task {a} has two holders and must
	// yield two distinct teams.
	teams, err := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{}).FormTopKContext(context.Background(), signedteams.NewTask(0), signedteams.FormOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) != 2 {
		t.Fatalf("teams = %d, want 2 (two seeds, distinct teams)", len(teams))
	}
	if teams[0].Cost > teams[1].Cost {
		t.Fatal("top-k not sorted")
	}
	full, err := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{}).FormTopKContext(context.Background(), signedteams.NewTask(0, 1), signedteams.FormOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 1 || len(full[0].Members) != 2 {
		t.Fatalf("full task teams = %+v, want one two-member team", full)
	}
}

// TestFormTopKFacadeTelemetry covers the aggregate SeedsTried /
// SeedsSucceeded semantics through the facade: every returned team
// carries the totals of the whole search, even after slicing to k.
func TestFormTopKFacadeTelemetry(t *testing.T) {
	g := signedteams.MustFromEdges(4, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 0, V: 2, Sign: signedteams.Positive},
		{U: 1, V: 3, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
	})
	univ, _ := signedteams.NewUniverse([]string{"a", "b"})
	assign := signedteams.NewAssignment(univ, 4)
	assign.MustAdd(1, 0)
	assign.MustAdd(2, 0)
	assign.MustAdd(3, 1)
	rel := signedteams.MustNewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	// Task {a}: two seeds, two distinct single-member teams; k=1 slices
	// the list but must keep the 2/2 aggregate on the survivor.
	teams, err := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{}).FormTopKContext(context.Background(), signedteams.NewTask(0), signedteams.FormOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) != 1 {
		t.Fatalf("teams = %d, want 1", len(teams))
	}
	if teams[0].SeedsTried != 2 || teams[0].SeedsSucceeded != 2 {
		t.Fatalf("telemetry = %d/%d, want aggregate 2/2", teams[0].SeedsSucceeded, teams[0].SeedsTried)
	}
}

// TestConstraintsFacade: the constrained-formation and diverse-top-k
// vocabulary is reachable through the public API — constraints ride
// FormOptions into FormTeam, contradictions surface as
// ErrInfeasibleTeam (which wraps ErrNoTeam), and a TeamSolver's
// FormTopKDiverseContext at lambda 0 reproduces FormTopKContext
// exactly.
func TestConstraintsFacade(t *testing.T) {
	g := signedteams.MustFromEdges(4, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 0, V: 2, Sign: signedteams.Positive},
		{U: 1, V: 3, Sign: signedteams.Positive},
		{U: 2, V: 3, Sign: signedteams.Positive},
	})
	univ, _ := signedteams.NewUniverse([]string{"a", "b"})
	assign := signedteams.NewAssignment(univ, 4)
	assign.MustAdd(1, 0)
	assign.MustAdd(2, 0)
	assign.MustAdd(3, 1)
	rel := signedteams.MustNewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	task := signedteams.NewTask(0, 1)

	tm, err := signedteams.FormTeam(rel, assign, task, signedteams.FormOptions{
		Constraints: signedteams.TeamConstraints{
			MustExclude: []signedteams.NodeID{1},
			MaxTeamSize: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tm.Members {
		if m == 1 {
			t.Fatalf("excluded user 1 in %v", tm.Members)
		}
	}
	if len(tm.Members) > 2 {
		t.Fatalf("cap ignored: %v", tm.Members)
	}

	_, err = signedteams.FormTeam(rel, assign, task, signedteams.FormOptions{
		Constraints: signedteams.TeamConstraints{MustExclude: []signedteams.NodeID{1, 2}},
	})
	if !errors.Is(err, signedteams.ErrInfeasibleTeam) || !errors.Is(err, signedteams.ErrNoTeam) {
		t.Fatalf("excluding every holder of a: err = %v, want ErrInfeasibleTeam wrapping ErrNoTeam", err)
	}

	plain, err := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{}).FormTopKContext(context.Background(), task, signedteams.FormOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	diverse, err := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{}).FormTopKDiverseContext(context.Background(), task, signedteams.FormOptions{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(diverse) {
		t.Fatalf("lambda=0 diverse returned %d teams, FormTopKContext %d", len(diverse), len(plain))
	}
	for i := range plain {
		if fmt.Sprint(plain[i].Members) != fmt.Sprint(diverse[i].Members) || plain[i].Cost != diverse[i].Cost {
			t.Fatalf("lambda=0 team %d: diverse %+v, plain %+v", i, diverse[i], plain[i])
		}
	}
	if _, err := signedteams.NewTeamSolver(rel, assign, signedteams.TeamSolverOptions{}).FormTopKDiverseContext(context.Background(), task, signedteams.FormOptions{}, 3, -1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

// TestTeamSolverFacade: the reusable solver must agree with per-call
// FormTeam through the public API, across engines and worker counts.
func TestTeamSolverFacade(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var tasks []signedteams.Task
	for i := 0; i < 6; i++ {
		task, err := signedteams.RandomTask(rng, d.Assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	lazy := signedteams.MustNewRelation(signedteams.SPO, d.Graph, signedteams.RelationOptions{})
	packed, err := signedteams.NewShardedRelation(signedteams.SPO, d.Graph, signedteams.ShardedRelationOptions{ShardRows: d.Graph.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	opts := signedteams.FormOptions{
		Skill: signedteams.LeastCompatibleFirst,
		User:  signedteams.MinDistance,
	}
	for _, rel := range []signedteams.Relation{lazy, packed} {
		solver := signedteams.NewTeamSolver(rel, d.Assign, signedteams.TeamSolverOptions{Workers: 3})
		batch, err := solver.FormBatch(tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range tasks {
			want, wantErr := signedteams.FormTeam(rel, d.Assign, task, opts)
			if wantErr != nil {
				if batch[i] != nil {
					t.Fatalf("task %d: batch found a team, FormTeam did not", i)
				}
				continue
			}
			if batch[i] == nil || batch[i].Cost != want.Cost || len(batch[i].Members) != len(want.Members) {
				t.Fatalf("task %d: batch %+v vs FormTeam %+v", i, batch[i], want)
			}
			// The batch team prices identically under TeamCostWith.
			cost, err := signedteams.TeamCostWith(rel, batch[i].Members, signedteams.DiameterCost)
			if err != nil || cost != want.Cost {
				t.Fatalf("task %d: re-priced cost %d,%v vs %d", i, cost, err, want.Cost)
			}
		}
	}
}

func TestTeamCostWithFacade(t *testing.T) {
	g := signedteams.MustFromEdges(3, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
	})
	rel := signedteams.MustNewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	members := []signedteams.NodeID{0, 1, 2}
	diam, err := signedteams.TeamCostWith(rel, members, signedteams.DiameterCost)
	if err != nil || diam != 2 {
		t.Fatalf("diameter = %d,%v", diam, err)
	}
	sum, err := signedteams.TeamCostWith(rel, members, signedteams.SumDistanceCost)
	if err != nil || sum != 4 { // 1+2+1
		t.Fatalf("sum = %d,%v", sum, err)
	}
}

func TestSignPredictionFacade(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	results, err := signedteams.EvaluateSignPrediction(d.Graph, rand.New(rand.NewSource(1)), 0.2, signedteams.PredictMethods())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Test == 0 {
			t.Fatalf("%v: empty test set", r.Method)
		}
		if r.Accuracy() < 0 || r.Accuracy() > 1 || r.Coverage() < 0 || r.Coverage() > 1 {
			t.Fatalf("%v: out-of-range metrics %+v", r.Method, r)
		}
	}
	p, err := signedteams.NewSignPredictor(d.Graph, signedteams.PredictCamps)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Predict(0, 1); !ok {
		t.Fatal("camps predictor abstained")
	}
}

// TestMatrixFacade: a packed relation saved through ShardedRelation.Save
// and reopened with OpenShardedRelation forms teams of the same cost as
// the built one.
func TestMatrixFacade(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	built, err := signedteams.NewShardedRelation(signedteams.SPO, d.Graph, signedteams.ShardedRelationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	path := filepath.Join(t.TempDir(), "slashdot-spo.stpk")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := signedteams.OpenShardedRelation(path, d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		task, err := signedteams.RandomTask(rng, d.Assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		t1, err1 := signedteams.FormTeam(built, d.Assign, task, signedteams.FormOptions{})
		t2, err2 := signedteams.FormTeam(opened, d.Assign, task, signedteams.FormOptions{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("task %d: built vs opened feasibility differ: %v / %v", i, err1, err2)
		}
		if err1 == nil && t1.Cost != t2.Cost {
			t.Fatalf("task %d: built cost %d vs opened cost %d", i, t1.Cost, t2.Cost)
		}
	}
}

func TestClusteringFacade(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	two, bad := signedteams.TwoFactions(g)
	if two.NumClusters != 2 {
		t.Fatalf("clusters = %d", two.NumClusters)
	}
	if bad < 0 || bad > g.NumEdges() {
		t.Fatalf("disagreements = %d", bad)
	}
	pivot := signedteams.PivotCC(g, rand.New(rand.NewSource(5)))
	before, err := signedteams.ClusterDisagreements(g, pivot)
	if err != nil {
		t.Fatal(err)
	}
	refined, after, err := signedteams.ClusterLocalSearch(g, pivot, 4)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("local search worsened %d → %d", before, after)
	}
	if agr, err := signedteams.ClusterAgreement(two, refined); err != nil || agr < 0 || agr > 1 {
		t.Fatalf("agreement = %v,%v", agr, err)
	}
}
