// Bulk row scans over the packed engine, built on internal/kernels:
// the batched AND/popcount the team planner's degree passes use
// (lock-free table reads, or on a spilling engine one lock for a whole
// run of rows instead of one per row), and DistRows, the distance-row
// collection behind the solver's fused MinDistance pick and cost
// scans.

package compat

import (
	"math/bits"

	"repro/internal/kernels"
	"repro/internal/sgraph"
)

// The u8 kernels treat kernels.Undefined lanes as "no defined
// distance"; that only works because it is the same byte as the
// packed engines' noDist8 sentinel. Both directions compile to 0 iff
// the constants agree.
const (
	_ uint8 = noDist8 - kernels.Undefined
	_ uint8 = kernels.Undefined - noDist8
)

// KernelsVariant reports which internal/kernels implementation the
// binary was compiled with ("portable", or "amd64v3" under
// GOAMD64=v3) — stamped into Stats, the tfsn batch report and the
// daemon's /stats so recorded numbers stay attributable.
func KernelsVariant() string { return kernels.Variant() }

// andCountRows is the bulk AND/popcount behind AndCountRows and
// AndCountRowsEach: popcount(row(u) AND mask) per row without a
// per-row call through RowWords — the dominant cost of the team
// planner's degree passes. Each row is ANDed against mask over their
// common prefix, min(row words, len(mask)) words; row words past the
// end of mask count as zero, so a holder set over fewer users than the
// graph has nodes is a valid mask. Rows of fresh shards come
// out of the lock-free table; from the first row whose shard is absent
// (stale, or the engine spills) the rest run under one mutex
// acquisition, resolved shard by shard (consecutive us usually land in
// the same shard — holder and pool slices are sorted), with stale
// shards rebuilding exactly as rowView does. emit receives (i, count)
// per row.
func (m *ShardedMatrix) andCountRows(us []sgraph.NodeID, mask []uint64, emit func(i int, c int)) error {
	k := min(m.stride, len(mask))
	i := 0
	for ; i < len(us); i++ {
		sl, r := m.tableRow(us[i])
		if sl == nil {
			break
		}
		emit(i, kernels.AndCount(sl.bits[r*m.stride:r*m.stride+k], mask))
	}
	if i == len(us) {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lastShard := -1
	var cur *shardState
	for ; i < len(us); i++ {
		s, r := m.shardOf(us[i])
		if s != lastShard {
			if err := m.freshLocked(s); err != nil {
				return err
			}
			sh, err := m.residentLocked(s)
			if err != nil {
				return err
			}
			lastShard, cur = s, sh
		}
		emit(i, kernels.AndCount(cur.bits[r*m.stride:r*m.stride+k], mask))
	}
	return nil
}

// AndCountRows returns Σ_u popcount(row(u) AND mask); see andCountRows
// for the mask contract.
func (m *ShardedMatrix) AndCountRows(us []sgraph.NodeID, mask []uint64) (int64, error) {
	var total int64
	err := m.andCountRows(us, mask, func(_, c int) { total += int64(c) })
	return total, err
}

// AndCountRowsEach writes popcount(row(us[i]) AND mask) into
// counts[i]; counts must be at least as long as us. See andCountRows
// for the mask contract.
func (m *ShardedMatrix) AndCountRowsEach(us []sgraph.NodeID, mask []uint64, counts []int32) error {
	return m.andCountRows(us, mask, func(i, c int) { counts[i] = int32(c) })
}

// DistRows is a reusable collection of packed distance rows — the
// team solver's per-scratch cache of its members' rows. It keeps the
// raw uint8 lanes alongside the DistRow views so the fused scans can
// hand the whole stack to the u8 kernels when every row is
// byte-packed (the engines promote to int32 only after a distance
// overflows uint8, in which case every scan takes the generic path).
// As a container of DistRow views it is itself a view type: holders
// must Clear it before pooling (see putScratch in internal/team).
//
//tfsn:viewtype
type DistRows struct {
	rows  []DistRow
	d8    [][]uint8 // aligned with rows; nil entries on promoted rows
	notU8 int       // how many rows have no u8 lanes
}

// Len returns the number of rows.
func (rs *DistRows) Len() int { return len(rs.rows) }

// Reset empties the collection, keeping capacity.
func (rs *DistRows) Reset() {
	rs.rows = rs.rows[:0]
	rs.d8 = rs.d8[:0]
	rs.notU8 = 0
}

// Append adds one row.
func (rs *DistRows) Append(r DistRow) {
	rs.rows = append(rs.rows, r)
	rs.d8 = append(rs.d8, r.d8)
	if r.d8 == nil {
		rs.notU8++
	}
}

// Clear is Reset plus dropping every cached view over the full
// capacity of the backing arrays: row views can alias engine slabs
// (a whole shard on the sharded engine), so a pooled scratch must not
// retain them past its use.
func (rs *DistRows) Clear() {
	rows := rs.rows[:cap(rs.rows)]
	for i := range rows {
		rows[i] = DistRow{}
	}
	d8 := rs.d8[:cap(rs.d8)]
	for i := range d8 {
		d8[i] = nil
	}
	rs.rows, rs.d8, rs.notU8 = rows[:0], d8[:0], 0
}

// Contribution scores node v against the first k rows: the maximum
// distance (sum=false, the Diameter cost) or the total (sum=true,
// SumDistance), with ok=false when any of those rows has no defined
// distance to v. It is the one scoring loop shared by the solver's
// pick fallbacks and cost functions.
//
//tfsn:noalloc
func (rs *DistRows) Contribution(k int, v sgraph.NodeID, sum bool) (int32, bool) {
	c := int32(0)
	for i := 0; i < k; i++ {
		d, ok := rs.rows[i].At(v)
		if !ok {
			return 0, false
		}
		if sum {
			c += d
		} else if d > c {
			c = d
		}
	}
	return c, true
}

// PickMin is the fused AND-popcount-argmin pick: among the candidate
// nodes marked in (holder AND mask) over the holder words listed in nz
// — never materialised — it returns the one with the smallest
// Contribution over all rows and that score, ties to the smallest id,
// ok=false when no candidate has a defined score below budget
// (exclusive; math.MaxInt32 is no limit). floor ≥ 0 is an inclusive
// lower bound on every candidate's score that the caller has proven (0
// always holds): a budget at or below it answers ok=false at once,
// and the kernels return at the first candidate that scores it. When
// every row is uint8-packed this is one kernel pass (ArgminMaxU8 /
// ArgminSumU8, handed the floor and the budget as their ceiling);
// otherwise a scalar scan over the same candidate enumeration, which
// needs no floor to stay exact, so the picked node is identical
// either way. Candidates are ANDed over the holder words only, so
// len(holder) ≤ len(mask) is required and a holder set over fewer
// users than the graph has nodes qualifies; bits of holder AND mask at
// positions ≥ the row length must be zero. nz follows the kernels'
// word-list contract: ascending, every non-zero holder word listed,
// zero words allowed — skills.HolderIndex's NonZero is such a list.
//
//tfsn:noalloc
func (rs *DistRows) PickMin(holder, mask []uint64, nz []int32, sum bool, floor, budget int32) (sgraph.NodeID, int32, bool) {
	if budget <= floor {
		return 0, 0, false
	}
	if rs.notU8 == 0 && len(rs.rows) > 0 {
		if sum {
			idx, score, ok := kernels.ArgminSumU8(rs.d8, holder, mask, nz, uint32(floor), uint32(budget))
			return sgraph.NodeID(idx), int32(score), ok
		}
		// Every defined u8 score is below Undefined, so larger budgets
		// are no limit, and a floor clamped to Undefined still admits
		// no candidate, as a floor that high proves.
		idx, score, ok := kernels.ArgminMaxU8(rs.d8, holder, mask, nz, uint8(min(floor, kernels.Undefined)), uint8(min(budget, kernels.Undefined)))
		return sgraph.NodeID(idx), int32(score), ok
	}
	best := sgraph.NodeID(-1)
	bestScore := budget
	if len(mask) > len(holder) {
		mask = mask[:len(holder)]
	}
	for _, wi := range nz {
		w := holder[wi] & mask[wi]
		base := int(wi) * 64
		for w != 0 {
			v := sgraph.NodeID(base + bits.TrailingZeros64(w))
			w &= w - 1
			score, ok := rs.Contribution(len(rs.rows), v, sum)
			if ok && score < bestScore {
				best, bestScore = v, score
			}
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return best, bestScore, true
}
