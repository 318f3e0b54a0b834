package team

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// fixture: path 0-1-2-3 (positive), plus node 4 with a negative edge
// to 1 and a positive edge to 3. Skills: 0:A, 1:B, 2:B, 3:C, 4:C.
//
//	0 -+- 1 -+- 2 -+- 3 -+- 4
//	         \------------/ (1,4) negative
type fixture struct {
	g      *sgraph.Graph
	assign *skills.Assignment
	task   skills.Task
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	g := sgraph.MustFromEdges(5, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
		{U: 3, V: 4, Sign: sgraph.Positive},
		{U: 1, V: 4, Sign: sgraph.Negative},
	})
	u, err := skills.NewUniverse([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, 5)
	a.MustAdd(0, 0) // A
	a.MustAdd(1, 1) // B
	a.MustAdd(2, 1) // B
	a.MustAdd(3, 2) // C
	a.MustAdd(4, 2) // C
	return &fixture{g: g, assign: a, task: skills.NewTask(0, 1, 2)}
}

func nne(t testing.TB, g *sgraph.Graph) compat.Relation {
	t.Helper()
	return compat.MustNew(compat.NNE, g, compat.Options{})
}

func TestFormLCMDOnFixture(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	tm, err := form(rel, f.assign, f.task, Options{Skill: RarestFirst, User: MinDistance})
	if err != nil {
		t.Fatalf("Form: %v", err)
	}
	// Greedy from the single A-holder 0: picks B-holder 1 (distance 1),
	// then C-holder 3 (4 conflicts with 1). Cost = d(0,3) = 3.
	wantMembers := []sgraph.NodeID{0, 1, 3}
	if len(tm.Members) != 3 {
		t.Fatalf("members = %v", tm.Members)
	}
	for i, m := range wantMembers {
		if tm.Members[i] != m {
			t.Fatalf("members = %v, want %v", tm.Members, wantMembers)
		}
	}
	if tm.Cost != 3 {
		t.Fatalf("cost = %d, want 3", tm.Cost)
	}
	if tm.SeedsTried != 1 || tm.SeedsSucceeded != 1 {
		t.Fatalf("seeds = %d/%d, want 1/1", tm.SeedsSucceeded, tm.SeedsTried)
	}
	// The team must actually be valid.
	if !f.assign.Covers(tm.Members, f.task) {
		t.Fatal("team does not cover the task")
	}
	ok, err := Compatible(rel, tm.Members)
	if err != nil || !ok {
		t.Fatalf("team not compatible: %v %v", ok, err)
	}
}

func TestExactBeatsGreedyOnFixture(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	exact, err := Exact(rel, f.assign, f.task, ExactOptions{})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	// {0,2,4} is compatible, covers, and has diameter 2 (the negative
	// edge (1,4) still shortens NNE distances).
	if exact.Cost != 2 {
		t.Fatalf("exact cost = %d, want 2", exact.Cost)
	}
	greedy, err := form(rel, f.assign, f.task, Options{Skill: RarestFirst, User: MinDistance})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost < exact.Cost {
		t.Fatalf("greedy %d beat the exact optimum %d", greedy.Cost, exact.Cost)
	}
	if greedy.Cost != 3 {
		t.Fatalf("greedy cost = %d, want 3 (the known suboptimal answer)", greedy.Cost)
	}
}

func TestFormEmptyTask(t *testing.T) {
	f := newFixture(t)
	tm, err := form(nne(t, f.g), f.assign, skills.NewTask(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.Members) != 0 || tm.Cost != 0 {
		t.Fatalf("empty task team = %+v", tm)
	}
}

func TestFormHolderlessSkill(t *testing.T) {
	f := newFixture(t)
	// Universe has 3 skills; extend the task with an unheld one by
	// making a new universe.
	u, err := skills.NewUniverse([]string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, 5)
	a.MustAdd(0, 0)
	_, err = form(nne(t, f.g), a, skills.NewTask(0, 3), Options{})
	if !errors.Is(err, ErrNoTeam) {
		t.Fatalf("err = %v, want ErrNoTeam", err)
	}
}

func TestFormSingleUserCoversAll(t *testing.T) {
	g := sgraph.MustFromEdges(2, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Positive}})
	u, _ := skills.NewUniverse([]string{"A", "B"})
	a := skills.NewAssignment(u, 2)
	a.MustAdd(1, 0)
	a.MustAdd(1, 1)
	tm, err := form(nne(t, g), a, skills.NewTask(0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.Members) != 1 || tm.Members[0] != 1 || tm.Cost != 0 {
		t.Fatalf("team = %+v, want single member 1 at cost 0", tm)
	}
}

func TestFormNoCompatibleTeam(t *testing.T) {
	// Only holders of A and B are joined by a negative edge.
	g := sgraph.MustFromEdges(2, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Negative}})
	u, _ := skills.NewUniverse([]string{"A", "B"})
	a := skills.NewAssignment(u, 2)
	a.MustAdd(0, 0)
	a.MustAdd(1, 1)
	for _, k := range compat.Kinds() {
		rel := compat.MustNew(k, g, compat.Options{})
		_, err := form(rel, a, skills.NewTask(0, 1), Options{})
		if !errors.Is(err, ErrNoTeam) {
			t.Fatalf("%v: err = %v, want ErrNoTeam", k, err)
		}
	}
}

func TestFormRandomUserNeedsRng(t *testing.T) {
	f := newFixture(t)
	if _, err := form(nne(t, f.g), f.assign, f.task, Options{User: RandomUser}); err == nil {
		t.Fatal("RandomUser without Rng accepted")
	}
	tm, err := form(nne(t, f.g), f.assign, f.task, Options{User: RandomUser, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatalf("RandomUser with Rng: %v", err)
	}
	if !f.assign.Covers(tm.Members, f.task) {
		t.Fatal("random team does not cover")
	}
	ok, err := Compatible(nne(t, f.g), tm.Members)
	if err != nil || !ok {
		t.Fatal("random team not compatible")
	}
}

func TestFormMaxSeeds(t *testing.T) {
	f := newFixture(t)
	// Task {B}: two holders (1, 2); MaxSeeds 1 tries only holder 1.
	tm, err := form(nne(t, f.g), f.assign, skills.NewTask(1), Options{MaxSeeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tm.SeedsTried != 1 {
		t.Fatalf("seeds tried = %d, want 1", tm.SeedsTried)
	}
	if len(tm.Members) != 1 || tm.Members[0] != 1 {
		t.Fatalf("team = %v, want [1]", tm.Members)
	}
}

func TestFormDeterministic(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	for _, opts := range []Options{
		{Skill: RarestFirst, User: MinDistance},
		{Skill: LeastCompatibleFirst, User: MinDistance},
		{Skill: LeastCompatibleFirst, User: MostCompatible},
	} {
		t1, err := form(rel, f.assign, f.task, opts)
		if err != nil {
			t.Fatalf("%v/%v: %v", opts.Skill, opts.User, err)
		}
		t2, err := form(rel, f.assign, f.task, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(t1.Members) != len(t2.Members) || t1.Cost != t2.Cost {
			t.Fatalf("%v/%v nondeterministic", opts.Skill, opts.User)
		}
		for i := range t1.Members {
			if t1.Members[i] != t2.Members[i] {
				t.Fatalf("%v/%v nondeterministic members", opts.Skill, opts.User)
			}
		}
	}
}

func TestSkillCompatDegrees(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	deg, err := skillCompatDegrees(rel, f.assign, f.task)
	if err != nil {
		t.Fatal(err)
	}
	// Holders: A={0}, B={1,2}, C={3,4}.
	// cd(A,B): (0,1)✓ (0,2)✓ = 2. cd(A,C): (0,3)✓ (0,4)✓ = 2.
	// cd(B,C): (1,3)✓ (1,4)✗ (2,3)✓ (2,4)✓ = 3.
	if deg[0] != 4 { // A: cd(A,B)+cd(A,C)
		t.Fatalf("cd(A) = %d, want 4", deg[0])
	}
	if deg[1] != 5 { // B: 2+3
		t.Fatalf("cd(B) = %d, want 5", deg[1])
	}
	if deg[2] != 5 { // C: 2+3
		t.Fatalf("cd(C) = %d, want 5", deg[2])
	}
}

func TestLeastCompatibleFirstOrdering(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1})
	plan, err := s.Plan(f.task, Options{Skill: LeastCompatibleFirst})
	if err != nil {
		t.Fatal(err)
	}
	// cd: A=4, B=5, C=5 → A first, then B (tie broken by id), then C.
	if plan.order[0] != 0 || plan.order[1] != 1 || plan.order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", plan.order)
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	sc.covered.Grow(len(plan.task))
	if got := plan.nextSkill(sc); got != 0 {
		t.Fatalf("nextSkill(∅) = %d, want 0", got)
	}
	sc.covered.Set(0) // A covered
	if got := plan.nextSkill(sc); got != 1 {
		t.Fatalf("nextSkill({A}) = %d, want 1", got)
	}
}

func TestCostAndCompatibleHelpers(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	cost, err := Cost(rel, []sgraph.NodeID{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 {
		t.Fatalf("cost = %d, want 2", cost)
	}
	if c, err := Cost(rel, []sgraph.NodeID{3}); err != nil || c != 0 {
		t.Fatalf("singleton cost = %d,%v", c, err)
	}
	ok, err := Compatible(rel, []sgraph.NodeID{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("negative-edge pair reported compatible")
	}
}

func TestExactBudget(t *testing.T) {
	f := newFixture(t)
	_, err := Exact(nne(t, f.g), f.assign, f.task, ExactOptions{MaxNodes: 1})
	if !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("err = %v, want ErrSearchBudget", err)
	}
}

func TestExactEmptyAndHolderless(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	tm, err := Exact(rel, f.assign, skills.NewTask(), ExactOptions{})
	if err != nil || len(tm.Members) != 0 {
		t.Fatalf("empty task: %+v, %v", tm, err)
	}
	u, _ := skills.NewUniverse([]string{"A", "B"})
	a := skills.NewAssignment(u, 5)
	a.MustAdd(0, 0)
	if _, err := Exact(rel, a, skills.NewTask(1), ExactOptions{}); !errors.Is(err, ErrNoTeam) {
		t.Fatalf("err = %v, want ErrNoTeam", err)
	}
}
