// ShardedMatrix reads: pair queries, the row accessors and the
// lock-free shard table a fully resident engine publishes.

package compat

import (
	"fmt"

	"repro/internal/sgraph"
)

// Compatible reports whether u and v are compatible. It errors on an
// id outside [0, NumNodes), or when a spilled shard cannot be reloaded
// or a stale one rebuilt.
func (m *ShardedMatrix) Compatible(u, v sgraph.NodeID) (bool, error) {
	words, _, err := m.pairRow(u, v)
	if err != nil {
		return false, err
	}
	return words[int(v)>>6]&(1<<uint(int(v)&63)) != 0, nil
}

// Distance returns the relation distance of (u,v) and whether it is
// defined. It errors like Compatible.
func (m *ShardedMatrix) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	_, dist, err := m.pairRow(u, v)
	if err != nil {
		return 0, false, err
	}
	d, ok := dist.At(v)
	return d, ok, nil
}

// pairRow is rowView(u) for a pair query, which may come from outside
// the program: it rejects ids outside [0, NumNodes).
func (m *ShardedMatrix) pairRow(u, v sgraph.NodeID) ([]uint64, DistRow, error) {
	if uint(u) >= uint(m.n) || uint(v) >= uint(m.n) {
		return nil, DistRow{}, fmt.Errorf("compat: pair (%d,%d) out of range [0,%d)", u, v, m.n)
	}
	return m.rowView(u)
}

// RowWords returns u's packed compatibility row (bit v set ⇔
// Compatible(u,v); bits ≥ NumNodes are zero). The slice is immutable
// and stays valid after the owning shard is evicted — until Close,
// which unmaps the spill file that zero-copy rows alias; it panics if
// a spilled shard cannot be reloaded. The caller must not modify it.
func (m *ShardedMatrix) RowWords(u sgraph.NodeID) []uint64 {
	if sl, r := m.tableRow(u); sl != nil {
		return sl.bits[r*m.stride : (r+1)*m.stride]
	}
	words, _, err := m.rowView(u)
	if err != nil {
		panic(err)
	}
	return words
}

// rowView resolves row u to its bit words and packed distance row. On
// a fully resident engine a fresh shard's row comes straight out of the
// published table, without a lock; otherwise (a spilling engine, or a
// shard a mutation invalidated) the locked path rebuilds a stale shard
// and reloads a cold one. With the shard resident (the serving steady
// state) the call allocates nothing.
//
//tfsn:noalloc
func (m *ShardedMatrix) rowView(u sgraph.NodeID) ([]uint64, DistRow, error) {
	if sl, r := m.tableRow(u); sl != nil {
		words, dist := sl.row(r, m.stride, m.n)
		return words, dist, nil
	}
	s, r := m.shardOf(u)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.freshLocked(s); err != nil {
		return nil, DistRow{}, err
	}
	sh, err := m.residentLocked(s)
	if err != nil {
		return nil, DistRow{}, err
	}
	words, dist := sh.row(r, m.stride, m.n)
	return words, dist, nil
}

// freshLocked rebuilds shard s if a mutation staled it, looping because
// a mutation racing in behind the rebuild stales it again. Requires
// m.mu, which it releases around the rebuild.
func (m *ShardedMatrix) freshLocked(s int) error {
	for m.shards[s].stale {
		m.mu.Unlock()
		err := m.freshen(s)
		m.mu.Lock()
		if err != nil {
			return err
		}
	}
	return nil
}

// tableRow returns the published slabs holding row u and u's row
// within them — nil when u's shard is not in the lock-free table (a
// spilling engine, or a shard a mutation staled). Table entries are
// immutable, so the slabs stay valid for as long as the caller holds
// them.
func (m *ShardedMatrix) tableRow(u sgraph.NodeID) (*shardSlabs, int) {
	t := m.table.Load()
	if t == nil {
		return nil, 0
	}
	s, r := m.shardOf(u)
	if sl := &t.slabs[s]; sl.bits != nil {
		return sl, r
	}
	return nil, 0
}

// shardOf returns the shard holding row u and u's row within it; the
// single-shard matrix configuration skips the division.
func (m *ShardedMatrix) shardOf(u sgraph.NodeID) (s, r int) {
	if m.numShards == 1 {
		return 0, int(u)
	}
	s = int(u) / m.shardRows
	return s, int(u) - s*m.shardRows
}

// publishLocked republishes the lock-free shard table from the shard
// states — every fresh resident shard's slabs — on a fully resident
// engine; a no-op on a spilling one. Requires m.mu.
func (m *ShardedMatrix) publishLocked() {
	if m.maxRes < m.numShards {
		return
	}
	t := &shardTable{slabs: make([]shardSlabs, m.numShards)}
	for s := range m.shards {
		if sh := &m.shards[s]; !sh.stale {
			t.slabs[s] = sh.shardSlabs
		}
	}
	m.table.Store(t)
}
