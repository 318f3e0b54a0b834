package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// TestValidateFlagsDiverseLambda: -diverse-lambda accepts finite
// weights >= 0 only. +Inf in particular must be refused: cost + Inf·0
// is NaN, which would silently turn the diverse selection into plain
// top-k.
func TestValidateFlagsDiverseLambda(t *testing.T) {
	set := map[string]bool{"diverse-lambda": true}
	for _, l := range []float64{0, 0.5, 3} {
		if err := validateFlags(config{topk: 1, diverseL: l}, set); err != nil {
			t.Errorf("lambda %v rejected: %v", l, err)
		}
	}
	for _, l := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := validateFlags(config{topk: 1, diverseL: l}, set); err == nil {
			t.Errorf("lambda %v accepted", l)
		}
	}
}

// TestValidateFlagsTopK: a -topk below 1 is a usage error, refused
// with exit 2 before the dataset loads or the engine builds.
func TestValidateFlagsTopK(t *testing.T) {
	set := map[string]bool{"topk": true}
	for _, k := range []int{0, -3} {
		err := validateFlags(config{topk: k}, set)
		if err == nil || err.Error() != fmt.Sprintf("-topk must be positive, got %d", k) {
			t.Errorf("-topk %d: %v, want refused", k, err)
		}
	}
	for _, k := range []int{1, 5} {
		if err := validateFlags(config{topk: k}, set); err != nil {
			t.Errorf("-topk %d rejected: %v", k, err)
		}
	}
}

// TestSolveTopOneIsForm: without -topk, tfsn must print the team
// FormIntoContext gives. The instance has two seeds whose cost-1 teams
// tie: FormIntoContext keeps the first seed's {2, 3}, while top-K at
// k = 1 breaks the tie by member set and returns {10, 11}.
func TestSolveTopOneIsForm(t *testing.T) {
	g := sgraph.MustFromEdges(12, []sgraph.Edge{
		{U: 2, V: 3, Sign: sgraph.Positive},
		{U: 10, V: 11, Sign: sgraph.Positive},
	})
	u, err := skills.NewUniverse([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, 12)
	a.MustAdd(2, 0)
	a.MustAdd(10, 0)
	a.MustAdd(3, 1)
	a.MustAdd(11, 1)
	rel, err := compat.New(compat.SPO, g, compat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := team.NewSolver(rel, a, team.SolverOptions{Workers: 1})
	task := skills.NewTask(0, 1)
	ctx := context.Background()

	got, err := solve(ctx, s, task, team.Options{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !slices.Equal(got[0].Members, []sgraph.NodeID{2, 3}) || got[0].Cost != 1 {
		t.Fatalf("solve at k = 1 = %+v, want the first seed's team [2 3] at cost 1", got)
	}
	top, err := s.FormTopKContext(ctx, task, team.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(top[0].Members, []sgraph.NodeID{10, 11}) {
		t.Fatalf("top-1 = %v, want [10 11]: the instance no longer tells the two apart", top[0].Members)
	}
	got, err = solve(ctx, s, task, team.Options{}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !slices.Equal(got[0].Members, []sgraph.NodeID{10, 11}) || !slices.Equal(got[1].Members, []sgraph.NodeID{2, 3}) {
		t.Fatalf("solve at k = 2 = %v, %v, want top-K's [10 11], [2 3]", got[0].Members, got[1].Members)
	}
}

// TestSBPFormsOnSlashdot: tfsn -dataset slashdot -relation SBP -k 3
// forms a team. With an uncapped path length the exact enumeration
// exceeds its budget on this stand-in (source 119); the engine's
// diameter+2 cap is what lets the relation answer.
func TestSBPFormsOnSlashdot(t *testing.T) {
	cfg := config{
		relation: "SBP", k: 3, topk: 1,
		skillPol: "leastcompatible", userPol: "mindistance", costKind: "diameter",
		data: cliflags.Data{Name: "slashdot", Seed: 1},
	}
	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(cfg)
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "relation SBP (engine=lazy)") || !strings.Contains(string(b), "team of 3 (Diameter ") {
		t.Fatalf("tfsn printed\n%s\nwant an SBP team of 3", b)
	}
}
