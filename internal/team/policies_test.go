package team

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// TestPairDegreeMemo: get/put must round-trip within an epoch, miss
// across epochs, start a fresh generation on the first insert at a new
// epoch, and treat the key as unordered (cd is symmetric). A nil memo
// must be inert.
func TestPairDegreeMemo(t *testing.T) {
	pm := newPairDegreeMemo(8)
	if _, ok := pm.get(0, 1, 2); ok {
		t.Fatal("empty memo hit")
	}
	pm.put(0, 1, 2, 42)
	if cd, ok := pm.get(0, 2, 1); !ok || cd != 42 {
		t.Fatalf("get(swapped) = (%d,%v), want (42,true)", cd, ok)
	}
	if _, ok := pm.get(1, 1, 2); ok {
		t.Fatal("stale-epoch get hit")
	}
	pm.put(1, 3, 4, 7)
	if _, ok := pm.get(1, 1, 2); ok {
		t.Fatal("entry from the previous generation survived the epoch move")
	}
	if cd, ok := pm.get(1, 3, 4); !ok || cd != 7 {
		t.Fatalf("fresh-generation get = (%d,%v), want (7,true)", cd, ok)
	}
	var nilMemo *pairDegreeMemo
	if _, ok := nilMemo.get(0, 1, 2); ok {
		t.Fatal("nil memo hit")
	}
	nilMemo.put(0, 1, 2, 1) // must not panic
}

// TestPairDegreeMemoEpochsMoveForward: a put stamped older than the
// current table is dropped — it must neither displace the newer
// generation nor become visible at its own epoch.
func TestPairDegreeMemoEpochsMoveForward(t *testing.T) {
	pm := newPairDegreeMemo(8)
	pm.put(5, 1, 2, 10)
	published := pm.table.Load()
	pm.put(3, 3, 4, 7)
	if pm.table.Load() != published {
		t.Fatal("a stale-epoch put replaced the current table")
	}
	if cd, ok := pm.get(5, 1, 2); !ok || cd != 10 {
		t.Fatalf("current-epoch get after stale put = (%d,%v), want (10,true)", cd, ok)
	}
	if _, ok := pm.get(3, 3, 4); ok {
		t.Fatal("stale-epoch put became visible at its epoch")
	}
	if _, ok := pm.get(5, 3, 4); ok {
		t.Fatal("stale-epoch put leaked into the current epoch")
	}
}

// TestPairDegreeMemoBounds: pairs the table cannot hold — an ID at or
// past pairMemoMaxSkills (or past the universe), equal or negative
// IDs, degrees that do not fit a slot — are simply not memoised.
func TestPairDegreeMemoBounds(t *testing.T) {
	pm := newPairDegreeMemo(pairMemoMaxSkills + 10)
	for _, p := range [][2]skills.SkillID{
		{0, pairMemoMaxSkills}, {pairMemoMaxSkills + 1, 3}, {4, 4}, {-1, 2},
	} {
		pm.put(0, p[0], p[1], 9)
		if _, ok := pm.get(0, p[0], p[1]); ok {
			t.Errorf("pair %v outside the memo was memoised", p)
		}
	}
	last := skills.SkillID(pairMemoMaxSkills - 1)
	pm.put(0, last-1, last, 11)
	if cd, ok := pm.get(0, last, last-1); !ok || cd != 11 {
		t.Fatalf("last in-budget pair = (%d,%v), want (11,true)", cd, ok)
	}
	pm.put(0, 1, 2, math.MaxUint32)
	if _, ok := pm.get(0, 1, 2); ok {
		t.Error("a degree too large for a slot was memoised")
	}
	pm.put(0, 1, 2, math.MaxUint32-1)
	if cd, ok := pm.get(0, 1, 2); !ok || cd != math.MaxUint32-1 {
		t.Errorf("largest slot degree = (%d,%v), want (%d,true)", cd, ok, int64(math.MaxUint32-1))
	}
	small := newPairDegreeMemo(3)
	small.put(0, 1, 3, 5)
	if _, ok := small.get(0, 1, 3); ok {
		t.Error("a skill ID past the universe was memoised")
	}
}

// wideAssignment spreads numSkills skills over n users, one to three
// holders each, so universes with far more than 2^16 skill pairs stay
// cheap to sweep.
func wideAssignment(rng *rand.Rand, n, numSkills int) *skills.Assignment {
	a := skills.NewAssignment(skills.GenerateUniverse(numSkills), n)
	for s := 0; s < numSkills; s++ {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			u := sgraph.NodeID(rng.Intn(n))
			if !a.Has(u, skills.SkillID(s)) {
				a.MustAdd(u, skills.SkillID(s))
			}
		}
	}
	return a
}

// TestPairDegreeMemoCoversUniverse: one degree pass over a 600-skill
// task touches 179,700 pairs — well past 2^16 — and must leave every
// one of them memoised, each equal to its unmemoised degree.
func TestPairDegreeMemoCoversUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(861))
	const n, numSkills = 48, 600
	g := randomTeamGraph(rng, n, 6*n, 0.3)
	assign := wideAssignment(rng, n, numSkills)
	rel := mustMatrix(t, compat.SPM, g)
	all := make(skills.Task, numSkills)
	for i := range all {
		all[i] = skills.SkillID(i)
	}
	memo := newPairDegreeMemo(numSkills)
	if err := taskSkillDegrees(rel, packedOf(rel), assign, all, make([]int64, numSkills), memo, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 2)
	for s2 := skills.SkillID(1); s2 < numSkills; s2++ {
		for s1 := skills.SkillID(0); s1 < s2; s1++ {
			cd, ok := memo.get(0, s1, s2)
			if !ok {
				t.Fatalf("pair (%d,%d) not memoised after one sweep", s1, s2)
			}
			if err := skillCompatDegreesInto(rel, assign, skills.Task{s1, s2}, want); err != nil {
				t.Fatal(err)
			}
			if cd != want[0] {
				t.Fatalf("memoised cd(%d,%d) = %d, want %d", s1, s2, cd, want[0])
			}
		}
	}
}

// TestSkillCompatDegreesPastMemoBudget: tasks whose skill IDs straddle
// pairMemoMaxSkills get exact degrees on cold and warm passes; only
// the in-budget pairs are memoised.
func TestSkillCompatDegreesPastMemoBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(871))
	const n, numSkills = 40, pairMemoMaxSkills + 64
	g := randomTeamGraph(rng, n, 6*n, 0.3)
	assign := wideAssignment(rng, n, numSkills)
	rel := mustMatrix(t, compat.SPO, g)
	memo := newPairDegreeMemo(numSkills)
	task := skills.Task{7, pairMemoMaxSkills - 2, pairMemoMaxSkills - 1, pairMemoMaxSkills, numSkills - 1}
	want := make([]int64, len(task))
	if err := skillCompatDegreesInto(rel, assign, task, want); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got := make([]int64, len(task))
		if err := taskSkillDegrees(rel, packedOf(rel), assign, task, got, memo, 0); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: deg[%d] = %d, want %d", pass, i, got[i], want[i])
			}
		}
	}
	for i, s1 := range task {
		for _, s2 := range task[i+1:] {
			_, ok := memo.get(0, s1, s2)
			if inBudget := s2 < pairMemoMaxSkills; ok != inBudget {
				t.Errorf("pair (%d,%d): memoised=%v, want %v", s1, s2, ok, inBudget)
			}
		}
	}
}

// TestPairDegreeMemoConcurrentEpochs races readers and writers against
// epoch bumps. Every put at epoch e stores f(e, pair), so any hit at e
// must read exactly that value: a slot can never surface a degree
// written at another epoch. Run under -race it also checks the table
// publication is properly synchronised.
func TestPairDegreeMemoConcurrentEpochs(t *testing.T) {
	const numSkills, workers, rounds = 64, 4, 300
	pm := newPairDegreeMemo(numSkills)
	f := func(e uint64, s1, s2 skills.SkillID) int64 {
		return int64(e)*10_000 + int64(min(s1, s2))*100 + int64(max(s1, s2))
	}
	var epoch atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(881 + w)))
			for r := 0; r < rounds; r++ {
				if w == 0 && r%20 == 0 {
					epoch.Add(1)
				}
				e := epoch.Load()
				for k := 0; k < 32; k++ {
					s1, s2 := skills.SkillID(rng.Intn(numSkills)), skills.SkillID(rng.Intn(numSkills))
					if rng.Intn(2) == 0 {
						pm.put(e, s1, s2, f(e, s1, s2))
					}
					if cd, ok := pm.get(e, s1, s2); ok && cd != f(e, s1, s2) {
						t.Errorf("get(%d, %d, %d) = %d, want %d", e, s1, s2, cd, f(e, s1, s2))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	final := epoch.Load()
	pm.put(final, 1, 2, f(final, 1, 2))
	if cd, ok := pm.get(final, 2, 1); !ok || cd != f(final, 1, 2) {
		t.Fatalf("after the race: get = (%d,%v), want (%d,true)", cd, ok, f(final, 1, 2))
	}
}

// TestSkillCompatDegreesMemoised: a memo-carrying degree pass must
// return exactly the unmemoised numbers, on cold and warm calls, over
// both a packed and a lazy relation — and warm calls must not touch
// the engine at all (verified by the memo hit short-circuiting before
// any holder-words setup, which the identical results imply).
func TestSkillCompatDegreesMemoised(t *testing.T) {
	rng := rand.New(rand.NewSource(841))
	const n = 40
	g := randomTeamGraph(rng, n, 6*n, 0.3)
	assign := randomAssignment(t, rng, n, 8)
	rels := map[string]compat.Relation{
		"lazy":   mustNewRelation(compat.SPO, g, compat.Options{}),
		"matrix": mustMatrix(t, compat.SPO, g),
	}
	for name, rel := range rels {
		memo := newPairDegreeMemo(assign.Universe().Len())
		for trial := 0; trial < 12; trial++ {
			task, err := skills.RandomTask(rng, assign, 2+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, len(task))
			if err := skillCompatDegreesInto(rel, assign, task, want); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // cold fills the memo, warm reads it
				got := make([]int64, len(task))
				if err := taskSkillDegrees(rel, packedOf(rel), assign, task, got, memo, 5); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s trial %d pass %d: deg[%d] = %d, want %d",
							name, trial, pass, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSolverPairMemoStaysCorrectAcrossMutations: a long-lived solver
// whose pair-degree memo is warm must produce the same teams as a
// fresh solver after every mutation — the focused memo-invalidation
// check (the broader TestSolverMutationOracle covers the same contract
// through the sharded engine and plan cache).
func TestSolverPairMemoStaysCorrectAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(851))
	const n = 24
	g := randomTeamGraph(rng, n, 6*n, 0.3)
	assign := randomAssignment(t, rng, n, 6)
	task, err := skills.RandomTask(rng, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	rel := mustMatrix(t, compat.SPO, g)
	warm := NewSolver(rel, assign, SolverOptions{Workers: 1})
	for step := 0; step < 6; step++ {
		// Warm the memo at the current epoch, then mutate.
		if _, err := formNew(warm, task, opts); err != nil && !errors.Is(err, ErrNoTeam) {
			t.Fatalf("step %d warmup: %v", step, err)
		}
		e := teamGraphEdges(rel.Graph())[step%len(teamGraphEdges(rel.Graph()))]
		if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
			t.Fatalf("step %d: flip: %v", step, err)
		}
		fresh := NewSolver(rel, assign, SolverOptions{Workers: 1})
		want, wantErr := formNew(fresh, task, opts)
		got, gotErr := formNew(warm, task, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("step %d: fresh err=%v warm err=%v", step, wantErr, gotErr)
		}
		if wantErr == nil {
			sameTeam(t, "post-mutation", want, got)
		}
	}
}
