// Plan-time policy helpers: the task-scoped skill compatibility
// degrees behind the LeastCompatibleFirst ranking and their
// epoch-keyed pair memo. The per-solve policy logic
// (skill selection, candidate filtering, user picking) lives in the
// solver's TaskPlan/scratch machinery in solver.go.

package team

import (
	"math"
	"sync/atomic"

	"repro/internal/compat"
	"repro/internal/container"
	"repro/internal/skills"
)

// skillCompatDegreesScratch computes the task-scoped compatibility
// degree cd(s) = Σ_{s'∈task, s'≠s} cd(s,s') of every task skill into
// deg (deg[i] for task[i]), where cd(s,s') counts compatible holder
// pairs (a single user holding both skills counts, by reflexivity).
// The paper defines cd over the whole universe; scoping to the task
// preserves the ranking the policy needs while keeping the cost
// proportional to the task's holder sets. holderBuf is a reusable
// holder-word buffer (the solver's plan compilation passes its
// per-worker buffer in, and keeps the possibly grown slice it gets
// back, so batches of cold plans allocate no degree scratch per task)
// and memo an optional epoch-keyed pair memo (nil skips memoisation):
// the pairwise degrees depend only on the relation and assignment, so
// a solver serving many tasks computes each pair it encounters once.
func skillCompatDegreesScratch(rel compat.Relation, assign *skills.Assignment, task skills.Task, deg []int64, holderBuf [][]uint64, memo *pairDegreeMemo, epoch uint64) ([][]uint64, error) {
	for i := range deg {
		deg[i] = 0
	}
	m, packed := rel.(compat.PackedRelation)
	var holderWords [][]uint64
	if packed {
		if cap(holderBuf) < len(task) {
			holderBuf = make([][]uint64, len(task))
		}
		holderWords = holderBuf[:len(task)]
		for i := range holderWords {
			holderWords[i] = nil // reset: entries fill lazily on memo misses
		}
	}
	rc, bulk := rel.(compat.RowAndCounter)
	for i, s1 := range task {
		for jo, s2 := range task[i+1:] {
			j := i + 1 + jo
			if cd, ok := memo.get(epoch, s1, s2); ok {
				deg[i] += cd
				deg[j] += cd
				continue
			}
			var cd int64
			if packed {
				// Word-parallel: the assignment's cached packed holder
				// set per skill, then one AND/popcount of u's row
				// against the other skill's holder set replaces
				// |holders| interface calls per source. Diagonal bits
				// are set, so a dual holder counts, as in the slow
				// path. cd is symmetric (packed rows are), so iterate
				// the smaller holder set and mask with the larger — on
				// Zipf-skewed assignments, where tasks routinely
				// contain one very popular skill, this cuts the row
				// scans from the popular side to the rare side.
				iter, maskPos := s1, j
				if assign.NumHolders(s2) < assign.NumHolders(s1) {
					iter, maskPos = s2, i
				}
				maskWords := holderWords[maskPos]
				if maskWords == nil {
					maskWords = taskHolderWords(assign, m, task[maskPos])
					holderWords[maskPos] = maskWords
				}
				if bulk {
					// One engine-state resolution (and one sharded
					// lock) for the whole holder set, instead of one
					// RowWords call per holder — the plan-compile
					// profile's hottest edge.
					var err error
					cd, err = rc.AndCountRows(assign.Holders(iter), maskWords)
					if err != nil {
						return holderBuf, err
					}
				} else {
					for _, u := range assign.Holders(iter) {
						cd += int64(container.AndCount(m.RowWords(u), maskWords))
					}
				}
			} else {
				var err error
				cd, err = skillPairDegree(rel, assign, s1, s2)
				if err != nil {
					return holderBuf, err
				}
			}
			memo.put(epoch, s1, s2, cd)
			deg[i] += cd
			deg[j] += cd
		}
	}
	return holderBuf, nil
}

// taskHolderWords resolves one skill's holder set as row-aligned
// packed words: the assignment's cached set when its word layout
// matches the relation's rows, a freshly built row-sized set when the
// two straddle a 64-bit word boundary (a misconfiguration more than a
// real layout — see holderWordsMatch).
func taskHolderWords(assign *skills.Assignment, m compat.PackedRelation, s skills.SkillID) []uint64 {
	if holderWordsMatch(assign, m) {
		return assign.HolderWords(s)
	}
	set := container.NewBitset(m.NumNodes())
	for _, u := range assign.Holders(s) {
		set.Set(int(u))
	}
	return set.Words()
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

// holderWordsMatch reports whether the assignment's packed holder sets
// have the packed relation's row word length, i.e. whether they can be
// ANDed against its rows directly. They diverge only when the
// assignment's user count and the graph's node count straddle a
// 64-bit word boundary — a misconfiguration more than a real layout.
func holderWordsMatch(assign *skills.Assignment, m compat.PackedRelation) bool {
	return (assign.NumUsers()+63)/64 == m.WordsPerRow() && assign.NumUsers() <= m.NumNodes()
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
