// Plan-time policy helpers: the task-scoped skill compatibility
// degrees behind the LeastCompatibleFirst ranking and their
// epoch-keyed pair memo. The per-solve policy logic
// (skill selection, candidate filtering, user picking) lives in the
// solver's TaskPlan/scratch machinery in grow.go.

package team

import (
	"math"
	"sync/atomic"

	"repro/internal/compat"
	"repro/internal/skills"
)

// taskSkillDegrees computes the task-scoped compatibility degree
// cd(s) = Σ_{s'∈task, s'≠s} cd(s,s') of every task skill into deg
// (deg[i] for task[i]), where cd(s,s') counts compatible holder pairs
// (a single user holding both skills counts, by reflexivity). The
// paper defines cd over the whole universe; scoping to the task
// preserves the ranking the policy needs while keeping the cost
// proportional to the task's holder sets. m is the packed engine
// behind rel, nil on the lazy one, and memo an optional epoch-keyed
// pair memo (nil skips memoisation): the pairwise degrees depend only
// on the relation and assignment, so a solver serving many tasks
// computes each pair it encounters once.
func taskSkillDegrees(rel compat.Relation, m *compat.ShardedMatrix, assign *skills.Assignment, task skills.Task, deg []int64, memo *pairDegreeMemo, epoch uint64) error {
	for i := range deg {
		deg[i] = 0
	}
	for i, s1 := range task {
		for jo, s2 := range task[i+1:] {
			j := i + 1 + jo
			if cd, ok := memo.get(epoch, s1, s2); ok {
				deg[i] += cd
				deg[j] += cd
				continue
			}
			var cd int64
			var err error
			if m != nil {
				// Word-parallel: one AND/popcount of each holder's row
				// against the other skill's packed holder set, summed in
				// one bulk call (one engine-state resolution, and one
				// lock on a spilling engine, for the whole holder set).
				// Diagonal bits are set, so a dual holder counts, as in
				// the pairwise path. cd is symmetric (packed rows are),
				// so iterate the smaller holder set and mask with the
				// larger — on Zipf-skewed assignments, where tasks
				// routinely contain one very popular skill, this cuts
				// the row scans from the popular side to the rare side.
				iter, other := s1, s2
				if assign.NumHolders(s2) < assign.NumHolders(s1) {
					iter, other = s2, s1
				}
				cd, err = m.AndCountRows(assign.Holders(iter), assign.HolderWords(other))
			} else {
				cd, err = skillPairDegree(rel, assign, s1, s2)
			}
			if err != nil {
				return err
			}
			memo.put(epoch, s1, s2, cd)
			deg[i] += cd
			deg[j] += cd
		}
	}
	return nil
}

// pairDegreeMemo caches pairwise skill compatibility degrees cd(s,s')
// across a solver's plan compilations. Each relation epoch gets its
// own dense triangular table — one slot per unordered pair of skill
// IDs below the memo's bound, holding cd+1 (0 = not yet computed) —
// published through an atomic pointer, the pattern the packed
// engine's shard table uses for its rows. A lookup is a pointer load, an epoch compare
// and a slot load, with no lock and no hashing, and a workload
// touching every pair of the universe computes each cd(s,s') once per
// epoch. A graph mutation moves the epoch, every
// lookup misses, and the first insert at the new epoch publishes a
// fresh table. A nil receiver disables memoisation.
type pairDegreeMemo struct {
	numSkills int // IDs below this are memoised: min(universe size, pairMemoMaxSkills)
	table     atomic.Pointer[pairDegreeTable]
}

// pairDegreeTable is one epoch's degrees, indexed by pairSlot.
type pairDegreeTable struct {
	epoch uint64
	slots []atomic.Uint32
}

// pairMemoMaxSkills bounds the skill IDs the memo covers, and with it
// the table: 2048·2047/2 four-byte slots, just under 8 MiB per epoch
// (the 523-skill Epinions universe needs 546 KB). Pairs with an ID at
// or past the bound, like degrees too large for a slot, are recomputed
// on every compile.
const pairMemoMaxSkills = 2048

// newPairDegreeMemo returns a memo for a universe of numSkills skills.
func newPairDegreeMemo(numSkills int) *pairDegreeMemo {
	return &pairDegreeMemo{numSkills: min(numSkills, pairMemoMaxSkills)}
}

// pairSlot returns the table index of the unordered pair {s1,s2} —
// s2(s2-1)/2 + s1 once ordered s1 < s2 — or false when the pair is
// not memoised: equal IDs, or an ID outside [0, pm.numSkills).
func (pm *pairDegreeMemo) pairSlot(s1, s2 skills.SkillID) (int, bool) {
	if s2 < s1 {
		s1, s2 = s2, s1
	}
	if s1 < 0 || s1 == s2 || int(s2) >= pm.numSkills {
		return 0, false
	}
	return int(s2)*(int(s2)-1)/2 + int(s1), true
}

//tfsn:noalloc
func (pm *pairDegreeMemo) get(epoch uint64, s1, s2 skills.SkillID) (int64, bool) {
	if pm == nil {
		return 0, false
	}
	i, ok := pm.pairSlot(s1, s2)
	if !ok {
		return 0, false
	}
	t := pm.table.Load()
	if t == nil || t.epoch != epoch {
		return 0, false
	}
	v := t.slots[i].Load()
	return int64(v) - 1, v != 0
}

// put records a degree computed against epoch. Epochs only move
// forward: the first put at a newer epoch publishes a fresh table, and
// a put stamped older than the current table is dropped, so a
// computation that raced a mutation can never displace the newer
// generation. As with the plan cache, a mutation landing mid-compute
// leaves at worst a value stamped one epoch behind, which the next
// table retires.
//
//tfsn:noalloc
func (pm *pairDegreeMemo) put(epoch uint64, s1, s2 skills.SkillID, cd int64) {
	if pm == nil || cd < 0 || cd >= math.MaxUint32 {
		return
	}
	i, ok := pm.pairSlot(s1, s2)
	if !ok {
		return
	}
	t := pm.table.Load()
	for t == nil || t.epoch < epoch {
		//tfsn:allow-alloc(once per epoch: the first put at a new epoch publishes its table)
		fresh := &pairDegreeTable{epoch: epoch, slots: make([]atomic.Uint32, pm.numSkills*(pm.numSkills-1)/2)}
		if pm.table.CompareAndSwap(t, fresh) {
			t = fresh
			break
		}
		t = pm.table.Load()
	}
	if t.epoch == epoch {
		t.slots[i].Store(uint32(cd + 1))
	}
}

func skillPairDegree(rel compat.Relation, assign *skills.Assignment, s1, s2 skills.SkillID) (int64, error) {
	var cd int64
	for _, u := range assign.Holders(s1) {
		for _, v := range assign.Holders(s2) {
			ok, err := rel.Compatible(u, v)
			if err != nil {
				return 0, err
			}
			if ok {
				cd++
			}
		}
	}
	return cd, nil
}
