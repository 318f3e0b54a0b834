package team

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// randomInstance builds a small random signed graph with a random
// skill assignment and a random task.
func randomInstance(rng *rand.Rand) (*sgraph.Graph, *skills.Assignment, skills.Task) {
	n := 6 + rng.Intn(8)
	b := sgraph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		s := sgraph.Positive
		if rng.Float64() < 0.3 {
			s = sgraph.Negative
		}
		b.AddEdge(u, v, s)
	}
	g := b.MustBuild()
	numSkills := 3 + rng.Intn(3)
	a := skills.NewAssignment(skills.GenerateUniverse(numSkills), n)
	for u := 0; u < n; u++ {
		for s := 0; s < numSkills; s++ {
			if rng.Float64() < 0.3 {
				a.MustAdd(sgraph.NodeID(u), skills.SkillID(s))
			}
		}
	}
	k := 2 + rng.Intn(numSkills-1)
	var task skills.Task
	if avail := a.SkillsWithHolders(); len(avail) >= k {
		task, _ = skills.RandomTask(rng, a, k)
	} else {
		task = skills.NewTask(avail...)
	}
	return g, a, task
}

// TestGreedyAgainstExactOracle drives all greedy policy combinations
// against the exhaustive solver on random instances:
//
//  1. any greedy team must be valid (covers task, pairwise compatible)
//     and cost at least the optimum;
//  2. if the exact solver proves no team exists, greedy must fail too.
//
// (The converse cannot be asserted: greedy is incomplete by design —
// Theorem 2.2 makes even feasibility NP-hard.)
func TestGreedyAgainstExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	combos := []Options{
		{Skill: RarestFirst, User: MinDistance},
		{Skill: RarestFirst, User: MostCompatible},
		{Skill: LeastCompatibleFirst, User: MinDistance},
		{Skill: LeastCompatibleFirst, User: MostCompatible},
	}
	kinds := []compat.Kind{compat.SPA, compat.SPO, compat.NNE}
	for trial := 0; trial < 40; trial++ {
		g, a, task := randomInstance(rng)
		if len(task) == 0 {
			continue
		}
		for _, kind := range kinds {
			rel := compat.MustNew(kind, g, compat.Options{})
			exact, exactErr := Exact(rel, a, task, ExactOptions{})
			if exactErr != nil && !errors.Is(exactErr, ErrNoTeam) {
				t.Fatalf("trial %d %v: exact: %v", trial, kind, exactErr)
			}
			for _, opts := range combos {
				greedy, err := form(rel, a, task, opts)
				if err != nil {
					if errors.Is(err, ErrNoTeam) {
						continue
					}
					t.Fatalf("trial %d %v %v/%v: %v", trial, kind, opts.Skill, opts.User, err)
				}
				if exactErr != nil {
					t.Fatalf("trial %d %v %v/%v: greedy found a team but exact proved none exists (task %v, team %v)",
						trial, kind, opts.Skill, opts.User, task, greedy.Members)
				}
				if !a.Covers(greedy.Members, task) {
					t.Fatalf("trial %d %v: greedy team %v does not cover %v", trial, kind, greedy.Members, task)
				}
				ok, err := Compatible(rel, greedy.Members)
				if err != nil || !ok {
					t.Fatalf("trial %d %v: greedy team %v incompatible (%v)", trial, kind, greedy.Members, err)
				}
				if greedy.Cost < exact.Cost {
					t.Fatalf("trial %d %v: greedy cost %d below optimum %d", trial, kind, greedy.Cost, exact.Cost)
				}
			}
		}
	}
}

// TestRandomPolicyValidity: the RANDOM baseline must also produce
// valid teams whenever it succeeds.
func TestRandomPolicyValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 30; trial++ {
		g, a, task := randomInstance(rng)
		if len(task) == 0 {
			continue
		}
		rel := compat.MustNew(compat.SPO, g, compat.Options{})
		tm, err := form(rel, a, task, Options{User: RandomUser, Rng: rng})
		if err != nil {
			if errors.Is(err, ErrNoTeam) {
				continue
			}
			t.Fatal(err)
		}
		if !a.Covers(tm.Members, task) {
			t.Fatalf("trial %d: random team does not cover", trial)
		}
		ok, err := Compatible(rel, tm.Members)
		if err != nil || !ok {
			t.Fatalf("trial %d: random team incompatible", trial)
		}
	}
}

func TestRarestFirstUnsignedOnFixture(t *testing.T) {
	f := newFixture(t)
	// Ignore-sign projection: all 5 edges usable.
	tm, err := RarestFirstUnsigned(f.g.IgnoreSigns(), f.assign, f.task)
	if err != nil {
		t.Fatalf("RarestFirstUnsigned: %v", err)
	}
	if !f.assign.Covers(tm.Members, f.task) {
		t.Fatalf("baseline team %v does not cover", tm.Members)
	}
	// Rarest skill is A (1 holder). From seed 0: closest B-holder 1
	// (d1), closest C-holder 4 (d2 via the negative edge). Cost =
	// diameter of {0,1,4} = 2.
	if tm.Cost != 2 {
		t.Fatalf("baseline cost = %d, want 2", tm.Cost)
	}
	// ...and that team is NOT compatible under NNE (edge (1,4) is
	// negative) — exactly the paper's Table 3 phenomenon.
	ok, err := Compatible(nne(t, f.g), tm.Members)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("expected the unsigned baseline team %v to violate NNE compatibility", tm.Members)
	}
}

func TestRarestFirstUnsignedDeleteNegative(t *testing.T) {
	f := newFixture(t)
	tm, err := RarestFirstUnsigned(f.g.DeleteNegative(), f.assign, f.task)
	if err != nil {
		t.Fatal(err)
	}
	if !f.assign.Covers(tm.Members, f.task) {
		t.Fatal("baseline team does not cover")
	}
	// Without the negative edge the closest C-holder to 0 is 3 (d=3).
	if tm.Cost != 3 {
		t.Fatalf("cost = %d, want 3", tm.Cost)
	}
}

// TestRarestFirstUnsignedAgainstExact: on the all-positive projection
// every pair is NNE-compatible, so our exact solver computes the true
// unsigned optimum; the baseline must never beat it.
func TestRarestFirstUnsignedAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		g, a, task := randomInstance(rng)
		if len(task) == 0 {
			continue
		}
		unsigned := g.IgnoreSigns()
		rel := compat.MustNew(compat.NNE, unsigned, compat.Options{})
		exact, exactErr := Exact(rel, a, task, ExactOptions{})
		base, baseErr := RarestFirstUnsigned(unsigned, a, task)
		if baseErr != nil {
			if !errors.Is(baseErr, ErrNoTeam) {
				t.Fatal(baseErr)
			}
			continue
		}
		if exactErr != nil {
			t.Fatalf("trial %d: baseline found a team, exact none: %v", trial, exactErr)
		}
		if !a.Covers(base.Members, task) {
			t.Fatalf("trial %d: baseline does not cover", trial)
		}
		if base.Cost < exact.Cost {
			t.Fatalf("trial %d: baseline cost %d beats optimum %d", trial, base.Cost, exact.Cost)
		}
	}
}

func TestRarestFirstUnsignedHolderless(t *testing.T) {
	f := newFixture(t)
	u, _ := skills.NewUniverse([]string{"A", "B"})
	a := skills.NewAssignment(u, 5)
	a.MustAdd(0, 0)
	if _, err := RarestFirstUnsigned(f.g, a, skills.NewTask(0, 1)); !errors.Is(err, ErrNoTeam) {
		t.Fatalf("err = %v, want ErrNoTeam", err)
	}
	if tm, err := RarestFirstUnsigned(f.g, a, skills.NewTask()); err != nil || len(tm.Members) != 0 {
		t.Fatalf("empty task: %+v, %v", tm, err)
	}
}
