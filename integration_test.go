package signedteams_test

import (
	"errors"
	"math/rand"
	"testing"

	signedteams "repro"

	"repro/internal/team"
)

// These integration tests exercise the full pipeline — dataset
// generation, relation construction, statistics, team formation,
// validation — across seeds, the way a downstream user composes the
// library.

func TestPipelineEndToEnd(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d, err := signedteams.LoadDataset("epinions", seed, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		g, assign := d.Graph, d.Assign
		if !g.IsConnected() {
			t.Fatalf("seed %d: dataset disconnected", seed)
		}

		taskRng := rand.New(rand.NewSource(seed))
		task, err := signedteams.RandomTask(taskRng, assign, 4)
		if err != nil {
			t.Fatal(err)
		}

		for _, kind := range []signedteams.RelationKind{signedteams.SPM, signedteams.SBPH, signedteams.NNE} {
			rel := mustNewRelation(kind, g, signedteams.RelationOptions{})
			tm, err := signedteams.FormTeam(rel, assign, task, signedteams.FormOptions{
				Skill: signedteams.LeastCompatibleFirst,
				User:  signedteams.MinDistance,
			})
			if errors.Is(err, signedteams.ErrNoTeam) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
			// Every formed team must satisfy all three requirements of
			// Definition 2.1.
			if !assign.Covers(tm.Members, task) {
				t.Fatalf("seed %d %v: team does not cover the task", seed, kind)
			}
			ok, err := signedteams.TeamCompatible(rel, tm.Members)
			if err != nil || !ok {
				t.Fatalf("seed %d %v: team incompatible (%v)", seed, kind, err)
			}
			cost, err := signedteams.TeamCost(rel, tm.Members)
			if err != nil || cost != tm.Cost {
				t.Fatalf("seed %d %v: cost mismatch %d vs %d (%v)", seed, kind, cost, tm.Cost, err)
			}
		}
	}
}

// TestCrossRelationTeamConsistency: a team formed under a stricter
// relation remains compatible under every more relaxed relation
// (containment chain lifted to teams).
func TestCrossRelationTeamConsistency(t *testing.T) {
	d, err := signedteams.LoadDataset("wikipedia", 5, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	chain := []signedteams.RelationKind{signedteams.SPA, signedteams.SPM, signedteams.SPO, signedteams.NNE}
	rels := make([]signedteams.Relation, len(chain))
	for i, k := range chain {
		rels[i] = mustNewRelation(k, d.Graph, signedteams.RelationOptions{})
	}
	taskRng := rand.New(rand.NewSource(2))
	formed := 0
	for i := 0; i < 10; i++ {
		task, err := signedteams.RandomTask(taskRng, d.Assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := signedteams.FormTeam(rels[0], d.Assign, task, signedteams.FormOptions{})
		if errors.Is(err, signedteams.ErrNoTeam) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		formed++
		for j, rel := range rels {
			ok, err := signedteams.TeamCompatible(rel, tm.Members)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("task %d: SPA team violates %v (containment broken)", i, chain[j])
			}
		}
	}
	if formed == 0 {
		t.Fatal("no SPA teams formed at all; test vacuous")
	}
}

// TestExactOracleAtIntegrationScale: on a small dataset, LCMD teams
// are never cheaper than the exhaustive optimum.
func TestExactOracleAtIntegrationScale(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel := mustNewRelation(signedteams.NNE, d.Graph, signedteams.RelationOptions{})
	taskRng := rand.New(rand.NewSource(4))
	checked := 0
	for i := 0; i < 10 && checked < 5; i++ {
		task, err := signedteams.RandomTask(taskRng, d.Assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := signedteams.FormTeam(rel, d.Assign, task, signedteams.FormOptions{})
		if errors.Is(err, signedteams.ErrNoTeam) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		exact, err := signedteams.ExactTeam(rel, d.Assign, task, signedteams.ExactOptions{
			MaxNodes: team.DefaultExactMaxNodes,
		})
		if err != nil {
			if errors.Is(err, team.ErrSearchBudget) {
				continue // instance too big for the oracle; skip
			}
			t.Fatal(err)
		}
		checked++
		if greedy.Cost < exact.Cost {
			t.Fatalf("task %v: greedy %d beats exact %d", task, greedy.Cost, exact.Cost)
		}
	}
	if checked == 0 {
		t.Skip("no instances small enough for the oracle")
	}
}
