package skills

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sgraph"
)

func TestUniverseBasics(t *testing.T) {
	u, err := NewUniverse([]string{"go", "sql", "ml"})
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d, want 3", u.Len())
	}
	if u.Name(1) != "sql" {
		t.Fatalf("Name(1) = %q", u.Name(1))
	}
	if s, ok := u.Lookup("ml"); !ok || s != 2 {
		t.Fatalf("Lookup(ml) = %d,%v", s, ok)
	}
	if _, ok := u.Lookup("java"); ok {
		t.Fatal("Lookup(java) should fail")
	}
}

func TestUniverseRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewUniverse([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := NewUniverse([]string{"a", ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestGenerateUniverse(t *testing.T) {
	u := GenerateUniverse(50)
	if u.Len() != 50 {
		t.Fatalf("Len = %d, want 50", u.Len())
	}
	if u.Name(7) != "skill-0007" {
		t.Fatalf("Name(7) = %q", u.Name(7))
	}
}

func TestAssignmentAddAndIndexes(t *testing.T) {
	u := GenerateUniverse(5)
	a := NewAssignment(u, 4)
	a.MustAdd(0, 3)
	a.MustAdd(0, 1)
	a.MustAdd(0, 3) // idempotent
	a.MustAdd(2, 1)

	if got := a.UserSkills(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("UserSkills(0) = %v", got)
	}
	if !a.Has(0, 1) || !a.Has(0, 3) || a.Has(0, 0) || a.Has(1, 1) {
		t.Fatal("Has wrong")
	}
	if got := a.Holders(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Holders(1) = %v", got)
	}
	if a.NumHolders(4) != 0 {
		t.Fatal("skill 4 should have no holders")
	}
	if a.TotalAssignments() != 3 {
		t.Fatalf("TotalAssignments = %d, want 3", a.TotalAssignments())
	}
	withHolders := a.SkillsWithHolders()
	if len(withHolders) != 2 || withHolders[0] != 1 || withHolders[1] != 3 {
		t.Fatalf("SkillsWithHolders = %v", withHolders)
	}
}

// TestHolderWords: the packed holder set must mirror Holders, be
// invalidated by Add, and share the container.Bitset word layout.
func TestHolderWords(t *testing.T) {
	u := GenerateUniverse(3)
	a := NewAssignment(u, 130) // straddles a word boundary
	a.MustAdd(0, 1)
	a.MustAdd(64, 1)
	a.MustAdd(129, 1)
	w := a.HolderWords(1)
	if len(w) != 3 {
		t.Fatalf("words = %d, want 3 for 130 users", len(w))
	}
	has := func(w []uint64, i int) bool { return w[i>>6]&(1<<uint(i&63)) != 0 }
	for _, i := range []int{0, 64, 129} {
		if !has(w, i) {
			t.Fatalf("holder %d missing from HolderWords", i)
		}
	}
	if got := popcountWords(w); got != 3 {
		t.Fatalf("popcount = %d, want 3", got)
	}
	// Cached: same slice back.
	if &a.HolderWords(1)[0] != &w[0] {
		t.Fatal("HolderWords not cached")
	}
	// Add invalidates exactly the touched skill.
	w0 := a.HolderWords(0)
	a.MustAdd(7, 1)
	w2 := a.HolderWords(1)
	if !has(w2, 7) || popcountWords(w2) != 4 {
		t.Fatal("Add did not invalidate the holder words")
	}
	if &a.HolderWords(0)[0] != &w0[0] {
		t.Fatal("Add invalidated an untouched skill's holder words")
	}
	// Empty skill: empty (all-zero) set, still cached.
	if popcountWords(a.HolderWords(2)) != 0 {
		t.Fatal("holderless skill has members")
	}
}

// TestHolderIndexAddIntoZeroWord: a holder added into a word that was
// all zero must show up in both the words and the non-zero word list,
// which stays ascending.
func TestHolderIndexAddIntoZeroWord(t *testing.T) {
	a := NewAssignment(GenerateUniverse(2), 300)
	a.MustAdd(10, 0)
	a.MustAdd(250, 0)
	if hi := a.HolderIndex(0); !slices.Equal(hi.NonZero, []int32{0, 3}) {
		t.Fatalf("NonZero = %v, want [0 3]", hi.NonZero)
	}
	a.MustAdd(130, 0) // word 2, all zero until now
	hi := a.HolderIndex(0)
	if hi.Words[2] != 1<<(130-128) {
		t.Fatalf("word 2 = %#x, want holder 130's bit", hi.Words[2])
	}
	if !slices.Equal(hi.NonZero, []int32{0, 2, 3}) {
		t.Fatalf("NonZero = %v, want [0 2 3]", hi.NonZero)
	}
	if &a.HolderWords(0)[0] != &hi.Words[0] {
		t.Fatal("HolderWords is not a view of the holder index")
	}
	if empty := a.HolderIndex(1); len(empty.NonZero) != 0 || popcountWords(empty.Words) != 0 {
		t.Fatalf("holderless skill: NonZero = %v", empty.NonZero)
	}
}

// TestHolderIndexConcurrentFirstCall: concurrent first requests for
// one skill's index (run under -race in CI) must all receive the same
// published index.
func TestHolderIndexConcurrentFirstCall(t *testing.T) {
	a := NewAssignment(GenerateUniverse(1), 1000)
	for u := 0; u < 1000; u += 7 {
		a.MustAdd(sgraph.NodeID(u), 0)
	}
	const workers = 8
	got := make([]*HolderIndex, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = a.HolderIndex(0)
		}()
	}
	start.Done()
	done.Wait()
	for i, hi := range got {
		if hi != got[0] {
			t.Fatalf("goroutine %d got a different index than goroutine 0", i)
		}
	}
	if n := popcountWords(got[0].Words); n != a.NumHolders(0) {
		t.Fatalf("index holds %d users, want %d", n, a.NumHolders(0))
	}
	if len(got[0].NonZero) != len(got[0].Words) {
		t.Fatalf("NonZero lists %d of %d populated words", len(got[0].NonZero), len(got[0].Words))
	}
}

func popcountWords(w []uint64) int {
	c := 0
	for _, x := range w {
		for ; x != 0; x &= x - 1 {
			c++
		}
	}
	return c
}

func TestAssignmentAddErrors(t *testing.T) {
	a := NewAssignment(GenerateUniverse(2), 2)
	if err := a.Add(5, 0); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := a.Add(0, 9); err == nil {
		t.Fatal("out-of-range skill accepted")
	}
}

func TestInsertSortedKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAssignment(GenerateUniverse(100), 1)
	for i := 0; i < 60; i++ {
		a.MustAdd(0, SkillID(rng.Intn(100)))
	}
	sk := a.UserSkills(0)
	if !sort.SliceIsSorted(sk, func(i, j int) bool { return sk[i] < sk[j] }) {
		t.Fatalf("skills not sorted: %v", sk)
	}
	for i := 1; i < len(sk); i++ {
		if sk[i] == sk[i-1] {
			t.Fatalf("duplicate skill %d", sk[i])
		}
	}
}

func TestGenerateZipfShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, err := GenerateZipf(rng, 500, ZipfConfig{NumSkills: 100, MeanSkillsPerUser: 5})
	if err != nil {
		t.Fatalf("GenerateZipf: %v", err)
	}
	if a.NumUsers() != 500 || a.Universe().Len() != 100 {
		t.Fatal("wrong dimensions")
	}
	// Every user has at least one skill.
	for u := 0; u < 500; u++ {
		if len(a.UserSkills(sgraph.NodeID(u))) == 0 {
			t.Fatalf("user %d has no skills", u)
		}
	}
	// Zipf: low-rank skills must dominate. Compare the most popular
	// decile against the least popular one.
	counts := make([]int, 100)
	for s := 0; s < 100; s++ {
		counts[s] = a.NumHolders(SkillID(s))
	}
	first, last := 0, 0
	for s := 0; s < 10; s++ {
		first += counts[s]
	}
	for s := 90; s < 100; s++ {
		last += counts[s]
	}
	if first <= 4*last {
		t.Fatalf("skill frequencies not heavy-tailed: first decile %d, last %d", first, last)
	}
	// Mean skills per user in the right ballpark.
	mean := float64(a.TotalAssignments()) / 500
	if mean < 2 || mean > 6 {
		t.Fatalf("mean skills per user = %g, want ≈5 (dedup shrinks it)", mean)
	}
}

func TestGenerateZipfDeterministic(t *testing.T) {
	a1, err := GenerateZipf(rand.New(rand.NewSource(7)), 50, ZipfConfig{NumSkills: 20})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := GenerateZipf(rand.New(rand.NewSource(7)), 50, ZipfConfig{NumSkills: 20})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		s1, s2 := a1.UserSkills(sgraph.NodeID(u)), a2.UserSkills(sgraph.NodeID(u))
		if len(s1) != len(s2) {
			t.Fatalf("user %d: nondeterministic skill count", u)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("user %d: nondeterministic skills", u)
			}
		}
	}
}

func TestGenerateZipfErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateZipf(rng, 10, ZipfConfig{NumSkills: 0}); err == nil {
		t.Fatal("NumSkills 0 accepted")
	}
	if _, err := GenerateZipf(rng, 0, ZipfConfig{NumSkills: 5}); err == nil {
		t.Fatal("numUsers 0 accepted")
	}
}

func TestNewTaskCanonicalises(t *testing.T) {
	task := NewTask(5, 1, 3, 1, 5)
	if len(task) != 3 || task[0] != 1 || task[1] != 3 || task[2] != 5 {
		t.Fatalf("NewTask = %v", task)
	}
	if !task.Contains(3) || task.Contains(2) {
		t.Fatal("Contains wrong")
	}
}

func TestRandomTask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAssignment(GenerateUniverse(10), 5)
	for s := 0; s < 6; s++ {
		a.MustAdd(sgraph.NodeID(s%5), SkillID(s))
	}
	task, err := RandomTask(rng, a, 4)
	if err != nil {
		t.Fatalf("RandomTask: %v", err)
	}
	if len(task) != 4 {
		t.Fatalf("task size = %d, want 4", len(task))
	}
	for _, s := range task {
		if a.NumHolders(s) == 0 {
			t.Fatalf("task contains holderless skill %d", s)
		}
	}
	if _, err := RandomTask(rng, a, 7); err == nil {
		t.Fatal("oversized task accepted")
	}
}

func TestRandomTaskUniformish(t *testing.T) {
	// All 6 skills held; over many samples of k=1 every skill appears.
	rng := rand.New(rand.NewSource(9))
	a := NewAssignment(GenerateUniverse(6), 6)
	for s := 0; s < 6; s++ {
		a.MustAdd(sgraph.NodeID(s), SkillID(s))
	}
	seen := map[SkillID]int{}
	for i := 0; i < 600; i++ {
		task, err := RandomTask(rng, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen[task[0]]++
	}
	for s := SkillID(0); s < 6; s++ {
		if seen[s] == 0 {
			t.Fatalf("skill %d never sampled", s)
		}
		if math.Abs(float64(seen[s])-100) > 60 {
			t.Fatalf("skill %d sampled %d times, want ≈100", s, seen[s])
		}
	}
}

func TestCovers(t *testing.T) {
	a := NewAssignment(GenerateUniverse(5), 3)
	a.MustAdd(0, 0)
	a.MustAdd(0, 1)
	a.MustAdd(1, 2)
	task := NewTask(0, 1, 2)
	if !a.Covers([]sgraph.NodeID{0, 1}, task) {
		t.Fatal("team {0,1} should cover {0,1,2}")
	}
	if a.Covers([]sgraph.NodeID{0}, task) {
		t.Fatal("team {0} should not cover {0,1,2}")
	}
	if !a.Covers(nil, NewTask()) {
		t.Fatal("empty team covers empty task")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, err := GenerateZipf(rng, 40, ZipfConfig{NumSkills: 15, MeanSkillsPerUser: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, a); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	b, err := ReadTSV(&buf, seqIDs(40))
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if b.Universe().Len() != a.Universe().Len() {
		t.Fatal("universe size changed")
	}
	for u := 0; u < 40; u++ {
		s1, s2 := a.UserSkills(sgraph.NodeID(u)), b.UserSkills(sgraph.NodeID(u))
		if len(s1) != len(s2) {
			t.Fatalf("user %d: %v vs %v", u, s1, s2)
		}
		for i := range s1 {
			if a.Universe().Name(s1[i]) != b.Universe().Name(s2[i]) {
				t.Fatalf("user %d skill %d renamed", u, i)
			}
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	for name, input := range map[string]string{
		"noheader":  "0\tgo\n",
		"badline":   "# universe: go\njunk\n",
		"baduser":   "# universe: go\nx\tgo\n",
		"rangeuser": "# universe: go\n99\tgo\n",
		"badskill":  "# universe: go\n0\tjava\n",
	} {
		if _, err := ReadTSV(bytes.NewReader([]byte(input)), seqIDs(10)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

// TestReadTSVJoinsOnIDs: rows join on the file's user ids, not on
// their position, and a row whose id is not a user is refused by id.
func TestReadTSVJoinsOnIDs(t *testing.T) {
	ids := []int64{-3, 5, 9, 12}
	a, err := ReadTSV(strings.NewReader("# universe: go,rust\n9\tgo\n-3\trust\n12\tgo,rust\n"), ids)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumUsers() != len(ids) {
		t.Fatalf("%d users, want %d", a.NumUsers(), len(ids))
	}
	for u, want := range []int{1, 0, 1, 2} {
		if got := len(a.UserSkills(sgraph.NodeID(u))); got != want {
			t.Errorf("user %d (id %d): %d skills, want %d", u, ids[u], got, want)
		}
	}
	_, err = ReadTSV(strings.NewReader("# universe: go\n7\tgo\n"), ids)
	if want := "skills: line 2: user 7 has no edge in the graph"; err == nil || err.Error() != want {
		t.Fatalf("row for id 7: err %v, want %q", err, want)
	}
}

// seqIDs returns the user ids 0..n-1.
func seqIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}
