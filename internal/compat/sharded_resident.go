// ShardedMatrix residency: the LRU of resident shards, spill
// reloads, pins, eviction and the slab shapes. The ...Locked helpers
// require m.mu held.

package compat

import "fmt"

// residentLocked returns shard s, materialising it if it is cold: the
// spill file serves it — as a zero-copy view into the mapping when
// views are enabled, by decoding into fresh heap slabs when not. Room
// is made before the load, so residency never exceeds the bound
// (pinned shards excepted). The
// resident fast path (sh.bits != nil) allocates nothing; only cold
// loads and the closed-spill error path do.
//
//tfsn:noalloc
func (m *ShardedMatrix) residentLocked(s int) (*shardState, error) {
	sh := &m.shards[s]
	if sh.bits == nil {
		if m.spill == nil {
			//tfsn:allow-alloc(cold error path: spill closed underneath a resident miss)
			return nil, fmt.Errorf("compat: shard %d is spilled but the spill file is closed", s)
		}
		if err := m.makeRoomLocked(); err != nil {
			return nil, err
		}
		if slab, ok := m.viewSlabLocked(s); ok {
			sh.shardSlabs = slab
		} else {
			sh.shardSlabs = m.newSlab(sh.rows)
			var err error
			m.readScratch, err = m.spill.read(s, sh.epoch, sh.bits, sh.dist8, sh.dist32, m.readScratch)
			if err != nil {
				sh.shardSlabs = shardSlabs{}
				return nil, err
			}
		}
		m.spillLoads.Add(1)
		m.admitLocked()
	}
	if sh.pins == 0 {
		m.lru.Touch(s)
	}
	return sh, nil
}

// viewSlabLocked resolves shard s as zero-copy slices into the spill
// mapping, when views are enabled and the slot qualifies.
func (m *ShardedMatrix) viewSlabLocked(s int) (shardSlabs, bool) {
	if !m.views {
		return shardSlabs{}, false
	}
	rows := m.shards[s].rows
	d8Len, d32Len := rows*m.n, 0
	if m.wide {
		d8Len, d32Len = 0, rows*m.n
	}
	bits, d8, d32, ok := m.spill.view(s, m.shards[s].epoch, rows*m.stride, d8Len, d32Len)
	if !ok {
		return shardSlabs{}, false
	}
	return shardSlabs{bits: bits, dist8: d8, dist32: d32}, true
}

// admitLocked counts one freshly materialised shard.
func (m *ShardedMatrix) admitLocked() {
	m.resident++
	if m.resident > m.peakResident {
		m.peakResident = m.resident
	}
}

// pinLocked makes shard s resident and exempts it from eviction.
func (m *ShardedMatrix) pinLocked(s int) (*shardState, error) {
	sh, err := m.residentLocked(s)
	if err != nil {
		return nil, err
	}
	sh.pins++
	m.lru.Remove(s)
	return sh, nil
}

// withPinned runs fn on shard s, made resident and pinned against
// eviction for the call. Requires m.mu not held.
func (m *ShardedMatrix) withPinned(s int, fn func(sh *shardState) error) error {
	m.mu.Lock()
	sh, err := m.pinLocked(s)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	err = fn(sh)
	m.mu.Lock()
	m.unpinLocked(s)
	m.mu.Unlock()
	return err
}

// unpinLocked releases a pin, making the shard evictable again.
func (m *ShardedMatrix) unpinLocked(s int) {
	sh := &m.shards[s]
	sh.pins--
	if sh.pins == 0 {
		m.lru.Touch(s)
	}
}

// makeRoomLocked evicts least-recently-used unpinned shards until one
// more shard fits within the residency bound. Dirty victims are
// written to the spill file (created lazily on the first eviction)
// before their buffers are released; when every resident shard is
// pinned it returns without evicting (the bound then transiently
// stretches, which only the ≤2-pin tile passes can cause).
//
// A failed spill write (or spill-file creation) must not demote the
// victim: its slot on disk may be stale or torn, so the shard stays
// resident, dirty and LRU-tracked — the eviction can be retried — and
// the error propagates to the query that needed the room.
func (m *ShardedMatrix) makeRoomLocked() error {
	for m.resident >= m.maxRes {
		victim := m.lru.PopBack()
		if victim < 0 {
			return nil // everything resident is pinned
		}
		sh := &m.shards[victim]
		if sh.stale {
			// A stale victim's data is dead — the next access rebuilds
			// it from the graph — so eviction drops the buffers without
			// paying a spill write. Whatever the spill slot holds is
			// older still; the slot's epoch tag guards against it ever
			// being served.
			sh.dirty = false
		}
		if sh.dirty {
			err := m.ensureSpillLocked()
			if err == nil {
				err = m.spill.write(victim, sh.epoch, sh.bits, sh.dist8, sh.dist32)
			}
			if err != nil {
				m.lru.Touch(victim)
				return err
			}
			sh.dirty = false
		}
		sh.shardSlabs = shardSlabs{}
		m.resident--
	}
	return nil
}

// ensureSpillLocked lazily creates the spill file on first eviction.
func (m *ShardedMatrix) ensureSpillLocked() error {
	if m.spill != nil {
		return nil
	}
	sp, err := newShardSpill(m.spillDir, m.slotSizes(), !m.noMmap)
	if err != nil {
		return err
	}
	m.spill = sp
	return nil
}

// newSlab allocates heap buffers shaped for a shard of the given row
// count under the active packing — the one place that knows the slab
// shape, shared by demand reloads, the build path and rebuilds.
func (m *ShardedMatrix) newSlab(rows int) shardSlabs {
	slab := shardSlabs{bits: make([]uint64, rows*m.stride)}
	if m.wide {
		slab.dist32 = make([]int32, rows*m.n)
	} else {
		slab.dist8 = make([]uint8, rows*m.n)
	}
	return slab
}

// shardLen returns the row count of shard s (the last may be short).
func (m *ShardedMatrix) shardLen(s int) int {
	rows := m.shardRows
	if base := s * m.shardRows; base+rows > m.n {
		rows = m.n - base
	}
	return rows
}

// shardBytes returns the spill-slot size of a shard with the given
// row count under the active distance packing, padded to 8 bytes so
// every slot offset stays aligned for the zero-copy mapping views.
func (m *ShardedMatrix) shardBytes(rows int) int64 {
	distBytes := int64(rows) * int64(m.n)
	if m.wide {
		distBytes *= 4
	}
	return (int64(rows)*int64(m.stride)*8 + distBytes + 7) &^ 7
}

// slotSizes returns every shard's slot payload size, the layout of the
// spill file and of a saved engine file.
func (m *ShardedMatrix) slotSizes() []int64 {
	sizes := make([]int64, m.numShards)
	for s := range sizes {
		sizes[s] = m.shardBytes(m.shardLen(s))
	}
	return sizes
}
