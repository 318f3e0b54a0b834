package signedteams_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	signedteams "repro"
)

// mustNewRelation is NewRelation for tests with known-good arguments:
// it panics on error.
func mustNewRelation(kind signedteams.RelationKind, g *signedteams.Graph, opts signedteams.RelationOptions) signedteams.Relation {
	rel, err := signedteams.NewRelation(kind, g, opts)
	if err != nil {
		panic(err)
	}
	return rel
}

// TestQuickstartFlow exercises the README quickstart end to end
// through the public API only.
func TestQuickstartFlow(t *testing.T) {
	b := signedteams.NewBuilder(4)
	b.AddEdge(0, 1, signedteams.Positive)
	b.AddEdge(1, 2, signedteams.Positive)
	b.AddEdge(0, 3, signedteams.Negative)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	rel, err := signedteams.NewRelation(signedteams.SPO, g, signedteams.RelationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := rel.Compatible(0, 2)
	if err != nil || !ok {
		t.Fatalf("Compatible(0,2) = %v,%v, want true", ok, err)
	}
	ok, err = rel.Compatible(0, 3)
	if err != nil || ok {
		t.Fatalf("Compatible(0,3) = %v,%v, want false", ok, err)
	}

	univ, err := signedteams.NewUniverse([]string{"go", "sql"})
	if err != nil {
		t.Fatal(err)
	}
	assign := signedteams.NewAssignment(univ, g.NumNodes())
	assign.MustAdd(0, 0)
	assign.MustAdd(2, 1)
	tm, err := signedteams.FormTeam(rel, assign, signedteams.NewTask(0, 1), signedteams.FormOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.Members) != 2 || tm.Cost != 2 {
		t.Fatalf("team = %+v, want members {0,2} at cost 2", tm)
	}
}

func TestRelationKindsAndParse(t *testing.T) {
	kinds := signedteams.RelationKinds()
	if len(kinds) != 7 {
		t.Fatalf("kinds = %v", kinds)
	}
	k, err := signedteams.ParseRelationKind("SBPH")
	if err != nil || k != signedteams.SBPH {
		t.Fatalf("ParseRelationKind: %v %v", k, err)
	}
}

func TestDatasetFacade(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.NumNodes() != 214 {
		t.Fatalf("nodes = %d", d.Graph.NumNodes())
	}
	if got := signedteams.Diameter(d.Graph); got <= 0 {
		t.Fatalf("diameter = %d", got)
	}
	if signedteams.IsBalanced(d.Graph) {
		t.Fatal("noisy dataset should not be perfectly balanced")
	}
	if f := signedteams.Frustration(d.Graph); f <= 0 {
		t.Fatalf("frustration = %d, want > 0 on a noisy graph", f)
	}
}

func TestGeneratorFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo, err := signedteams.ChungLu(rng, 100, 300, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	camps := signedteams.RandomCamps(rng, 100, 0.5)
	edges, err := signedteams.FactionSigns(rng, topo, camps, 0.25, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := signedteams.FromEdges(100, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 300 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if camps2, ok := signedteams.BalanceCamps(g); ok && camps2 == nil {
		t.Fatal("inconsistent BalanceCamps result")
	}
}

func TestEdgeListFacadeRoundTrip(t *testing.T) {
	g := signedteams.MustFromEdges(3, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Negative},
	})
	var buf bytes.Buffer
	if err := signedteams.WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, _, err := signedteams.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 || g2.NumNegativeEdges() != 1 {
		t.Fatalf("round trip changed the graph: %v", g2)
	}
}

func TestErrNoTeamFacade(t *testing.T) {
	g := signedteams.MustFromEdges(2, []signedteams.Edge{{U: 0, V: 1, Sign: signedteams.Negative}})
	rel := mustNewRelation(signedteams.NNE, g, signedteams.RelationOptions{})
	univ, _ := signedteams.NewUniverse([]string{"a", "b"})
	assign := signedteams.NewAssignment(univ, 2)
	assign.MustAdd(0, 0)
	assign.MustAdd(1, 1)
	_, err := signedteams.FormTeam(rel, assign, signedteams.NewTask(0, 1), signedteams.FormOptions{})
	if !errors.Is(err, signedteams.ErrNoTeam) {
		t.Fatalf("err = %v, want ErrNoTeam", err)
	}
	// The exact solver and the unsigned baseline flow through the
	// facade as well.
	if _, err := signedteams.ExactTeam(rel, assign, signedteams.NewTask(0, 1), signedteams.ExactOptions{}); !errors.Is(err, signedteams.ErrNoTeam) {
		t.Fatalf("exact err = %v", err)
	}
	tm, err := signedteams.RarestFirstUnsigned(g.IgnoreSigns(), assign, signedteams.NewTask(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := signedteams.TeamCompatible(rel, tm.Members)
	if err != nil || ok {
		t.Fatalf("unsigned team should violate NNE: %v %v", ok, err)
	}
	if c, err := signedteams.TeamCost(rel, tm.Members); err != nil || c != 1 {
		t.Fatalf("cost = %d, %v", c, err)
	}
}

func TestRelationStatsFacade(t *testing.T) {
	d, err := signedteams.LoadDataset("slashdot", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel := mustNewRelation(signedteams.SPO, d.Graph, signedteams.RelationOptions{})
	stats, err := signedteams.ComputeRelationStats(rel, signedteams.StatsOptions{Assign: d.Assign})
	if err != nil {
		t.Fatal(err)
	}
	if stats.UserFraction() <= 0 || stats.UserFraction() > 1 {
		t.Fatalf("fraction = %g", stats.UserFraction())
	}
	if stats.Skills == nil {
		t.Fatal("skill matrix missing")
	}
	if err := signedteams.PrecomputeRelation(rel, 0); err != nil {
		t.Fatal(err)
	}
}
