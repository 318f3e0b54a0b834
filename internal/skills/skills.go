// Package skills models the skill side of the team formation problem:
// a universe of skills, the user→skills assignment with its inverted
// (skill→holders) index, task sampling, and the Zipf-distributed
// synthetic assignment the paper uses for the Wikipedia dataset.
package skills

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/sgraph"
)

// SkillID identifies a skill; dense integers in [0, Universe.Len()).
type SkillID = int32

// Universe is an immutable, ordered collection of skill names.
type Universe struct {
	names  []string
	byName map[string]SkillID
}

// NewUniverse builds a universe from distinct names.
func NewUniverse(names []string) (*Universe, error) {
	u := &Universe{
		names:  append([]string(nil), names...),
		byName: make(map[string]SkillID, len(names)),
	}
	for i, name := range u.names {
		if name == "" {
			return nil, fmt.Errorf("skills: empty skill name at index %d", i)
		}
		if _, dup := u.byName[name]; dup {
			return nil, fmt.Errorf("skills: duplicate skill name %q", name)
		}
		u.byName[name] = SkillID(i)
	}
	return u, nil
}

// GenerateUniverse returns a universe of n synthetic skills named
// "skill-0000".."skill-n-1".
func GenerateUniverse(n int) *Universe {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("skill-%04d", i)
	}
	u, err := NewUniverse(names)
	if err != nil {
		panic("skills: GenerateUniverse produced duplicates: " + err.Error())
	}
	return u
}

// Len returns the number of skills.
func (u *Universe) Len() int { return len(u.names) }

// Name returns the name of skill s.
func (u *Universe) Name(s SkillID) string { return u.names[s] }

// Lookup resolves a skill name.
func (u *Universe) Lookup(name string) (SkillID, bool) {
	s, ok := u.byName[name]
	return s, ok
}

// Assignment maps users to skill sets and maintains the inverted
// skill→holders index used by every team formation policy.
type Assignment struct {
	universe *Universe
	ofUser   [][]SkillID       // sorted, deduplicated
	holders  [][]sgraph.NodeID // sorted, deduplicated

	// index holds each skill's lazily built HolderIndex, published
	// without a lock; Add clears the touched skill's entry.
	index []atomic.Pointer[HolderIndex]
}

// HolderIndex is the packed holder set of one skill: Words has bit u
// set iff user u holds the skill, in (NumUsers+63)/64 words — the
// container.Bitset layout, so it composes with packed relation rows of
// the same universe in word-parallel AND/popcount operations — and
// NonZero lists the indices of its non-zero words in ascending order,
// so a scan over a sparse holder set can skip the empty words. Both
// are shared and must not be modified.
type HolderIndex struct {
	Words   []uint64
	NonZero []int32
}

// NewAssignment returns an empty assignment for numUsers users over
// the given universe.
func NewAssignment(u *Universe, numUsers int) *Assignment {
	return &Assignment{
		universe: u,
		ofUser:   make([][]SkillID, numUsers),
		holders:  make([][]sgraph.NodeID, u.Len()),
		index:    make([]atomic.Pointer[HolderIndex], u.Len()),
	}
}

// Universe returns the assignment's skill universe.
func (a *Assignment) Universe() *Universe { return a.universe }

// NumUsers returns the number of users.
func (a *Assignment) NumUsers() int { return len(a.ofUser) }

// Add gives user u skill s (idempotent).
func (a *Assignment) Add(u sgraph.NodeID, s SkillID) error {
	if int(u) < 0 || int(u) >= len(a.ofUser) {
		return fmt.Errorf("skills: user %d out of range [0,%d)", u, len(a.ofUser))
	}
	if int(s) < 0 || int(s) >= a.universe.Len() {
		return fmt.Errorf("skills: skill %d out of range [0,%d)", s, a.universe.Len())
	}
	if a.Has(u, s) {
		return nil
	}
	a.ofUser[u] = insertSorted(a.ofUser[u], s)
	a.holders[s] = insertSortedNodes(a.holders[s], u)
	a.index[s].Store(nil) // stale holder index, rebuilt on demand
	return nil
}

// MustAdd is Add that panics on error, for generators and tests.
func (a *Assignment) MustAdd(u sgraph.NodeID, s SkillID) {
	if err := a.Add(u, s); err != nil {
		panic(err)
	}
}

// Has reports whether user u holds skill s.
func (a *Assignment) Has(u sgraph.NodeID, s SkillID) bool {
	sk := a.ofUser[u]
	i := sort.Search(len(sk), func(i int) bool { return sk[i] >= s })
	return i < len(sk) && sk[i] == s
}

// UserSkills returns user u's skills as a shared sorted slice.
func (a *Assignment) UserSkills(u sgraph.NodeID) []SkillID { return a.ofUser[u] }

// Holders returns the users holding skill s as a shared sorted slice.
func (a *Assignment) Holders(s SkillID) []sgraph.NodeID { return a.holders[s] }

// NumHolders returns the number of users holding s.
func (a *Assignment) NumHolders(s SkillID) int { return len(a.holders[s]) }

// HolderIndex returns the holder index of skill s. It is built on
// first request, cached per skill and invalidated by Add; concurrent
// first requests all receive the one index that was published. Safe
// for concurrent use, lock-free once built.
func (a *Assignment) HolderIndex(s SkillID) *HolderIndex {
	if hi := a.index[s].Load(); hi != nil {
		return hi
	}
	hi := &HolderIndex{Words: make([]uint64, (len(a.ofUser)+63)/64)}
	for _, u := range a.holders[s] {
		wi := int(u) >> 6
		if hi.Words[wi] == 0 {
			hi.NonZero = append(hi.NonZero, int32(wi)) // holders are sorted
		}
		hi.Words[wi] |= 1 << uint(int(u)&63)
	}
	if a.index[s].CompareAndSwap(nil, hi) {
		return hi
	}
	return a.index[s].Load()
}

// HolderWords returns HolderIndex(s).Words.
func (a *Assignment) HolderWords(s SkillID) []uint64 { return a.HolderIndex(s).Words }

// TotalAssignments returns the number of (user, skill) pairs.
func (a *Assignment) TotalAssignments() int {
	total := 0
	for _, sk := range a.ofUser {
		total += len(sk)
	}
	return total
}

// SkillsWithHolders returns the ids of skills held by at least one
// user, in increasing order.
func (a *Assignment) SkillsWithHolders() []SkillID {
	var out []SkillID
	for s := range a.holders {
		if len(a.holders[s]) > 0 {
			out = append(out, SkillID(s))
		}
	}
	return out
}

func insertSorted(xs []SkillID, x SkillID) []SkillID {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

func insertSortedNodes(xs []sgraph.NodeID, x sgraph.NodeID) []sgraph.NodeID {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// ZipfConfig controls the synthetic Zipf skill assignment of
// GenerateZipf, mirroring the paper's Wikipedia setup: skill
// frequencies follow a Zipf distribution and each occurrence lands on
// a user chosen uniformly at random.
type ZipfConfig struct {
	// NumSkills in the universe (required > 0).
	NumSkills int
	// MeanSkillsPerUser scales the total number of (user, skill)
	// assignments: total ≈ MeanSkillsPerUser × numUsers. Defaults to 4.
	MeanSkillsPerUser float64
	// Exponent s > 1 of the Zipf law (rank^-s); defaults to 1.1.
	Exponent float64
}

// GenerateZipf builds a universe of cfg.NumSkills synthetic skills and
// assigns them to numUsers users: skill ranks are drawn from a Zipf
// distribution, users uniformly. Every user is guaranteed at least one
// skill so that it can participate in some task.
func GenerateZipf(rng *rand.Rand, numUsers int, cfg ZipfConfig) (*Assignment, error) {
	if cfg.NumSkills <= 0 {
		return nil, fmt.Errorf("skills: NumSkills = %d, want > 0", cfg.NumSkills)
	}
	if numUsers <= 0 {
		return nil, fmt.Errorf("skills: numUsers = %d, want > 0", numUsers)
	}
	mean := cfg.MeanSkillsPerUser
	if mean <= 0 {
		mean = 4
	}
	exp := cfg.Exponent
	if exp <= 1 {
		exp = 1.1
	}
	universe := GenerateUniverse(cfg.NumSkills)
	a := NewAssignment(universe, numUsers)
	zipf := rand.NewZipf(rng, exp, 1, uint64(cfg.NumSkills-1))
	if zipf == nil {
		return nil, fmt.Errorf("skills: invalid Zipf parameters (exponent %g)", exp)
	}
	total := int(mean * float64(numUsers))
	for i := 0; i < total; i++ {
		s := SkillID(zipf.Uint64())
		u := sgraph.NodeID(rng.Intn(numUsers))
		a.MustAdd(u, s)
	}
	// Guarantee non-empty skill sets.
	for u := 0; u < numUsers; u++ {
		if len(a.ofUser[u]) == 0 {
			a.MustAdd(sgraph.NodeID(u), SkillID(zipf.Uint64()))
		}
	}
	return a, nil
}

// Task is a set of required skills (sorted, distinct).
type Task []SkillID

// NewTask canonicalises (sorts, deduplicates) a skill list. Already
// canonical input — the common case when re-canonicalising a Task
// that went through NewTask before, as the solver's plan compiler
// does on every call — skips the sort and just copies.
func NewTask(ids ...SkillID) Task {
	canonical := true
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			canonical = false
			break
		}
	}
	t := append(Task(nil), ids...)
	if canonical {
		return t
	}
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	out := t[:0]
	for i, s := range t {
		if i == 0 || s != t[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Contains reports whether the task requires skill s.
func (t Task) Contains(s SkillID) bool {
	i := sort.Search(len(t), func(i int) bool { return t[i] >= s })
	return i < len(t) && t[i] == s
}

// RandomTask samples a task of k distinct skills uniformly from the
// skills that have at least one holder (as the paper's task generator
// does: tasks are made of skills present in the data). It returns an
// error when fewer than k such skills exist.
func RandomTask(rng *rand.Rand, a *Assignment, k int) (Task, error) {
	avail := a.SkillsWithHolders()
	if k > len(avail) {
		return nil, fmt.Errorf("skills: cannot sample %d skills, only %d have holders", k, len(avail))
	}
	// Partial Fisher-Yates.
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(avail)-i)
		avail[i], avail[j] = avail[j], avail[i]
	}
	return NewTask(avail[:k]...), nil
}

// Covers reports whether the members' union of skills covers the task.
func (a *Assignment) Covers(members []sgraph.NodeID, t Task) bool {
	need := make(map[SkillID]bool, len(t))
	for _, s := range t {
		need[s] = true
	}
	for _, u := range members {
		for _, s := range a.ofUser[u] {
			delete(need, s)
		}
	}
	return len(need) == 0
}
