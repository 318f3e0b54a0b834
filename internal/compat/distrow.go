// The packed distance-row accessor. Distance answers one ordered pair
// per call, which would make the team solver's MinDistance picker —
// the hottest loop of batch serving — pay a full lookup (a shard
// resolution and, on a spilling engine, a mutex acquisition) for every
// (candidate, member) pair. DistanceRow instead resolves a source row
// once and hands back a DistRow view whose At is a plain slice index,
// so scanning one candidate against the whole team touches the shard
// bookkeeping a single time.

package compat

import "repro/internal/sgraph"

// DistRow is one source node's packed distance row: the relation
// distance from the source to every node, in whichever packing the
// engine built (uint8 with a sentinel, or int32 after overflow). It is
// an immutable view — valid even after the owning shard is evicted or
// rebuilt — and At never locks, so hot loops resolve the
// row once and then index freely. It aliases engine-owned (possibly
// mmap-backed) memory and must not outlive the engine's Close.
//
//tfsn:viewtype
type DistRow struct {
	d8  []uint8
	d32 []int32
}

// At returns the packed distance to v and whether it is defined,
// exactly as Distance(source, v) would.
func (r DistRow) At(v sgraph.NodeID) (int32, bool) {
	if r.d32 != nil {
		d := r.d32[v]
		return d, d != noDist32
	}
	d := r.d8[v]
	return int32(d), d != noDist8
}

// Len returns the number of entries (the node count), 0 for the zero
// DistRow.
func (r DistRow) Len() int {
	if r.d32 != nil {
		return len(r.d32)
	}
	return len(r.d8)
}

// DistanceRow returns u's packed distance row, reloading the owning
// shard if it is cold — one shard resolution for the whole row, where
// per-pair Distance calls would resolve once per pair. Like
// RowWords, it panics if a spilled shard cannot be reloaded (or a
// post-mutation rebuild fails), and the returned view is frozen at its
// epoch: it stays valid after the shard is evicted or rebuilt — until
// Close unmaps the spill file that zero-copy rows alias.
func (m *ShardedMatrix) DistanceRow(u sgraph.NodeID) DistRow {
	if sl, r := m.tableRow(u); sl != nil {
		return sl.distRow(r, m.n)
	}
	_, dist, err := m.rowView(u)
	if err != nil {
		panic(err)
	}
	return dist
}
