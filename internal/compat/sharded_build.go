// ShardedMatrix construction and the one shard fill path: NewSharded,
// fillShard — which construction, stale-shard rebuilds and wide
// promotion all run — and the blocked SBPH symmetrise tile passes.

package compat

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/balance"
	"repro/internal/container"
	"repro/internal/sgraph"
)

// NewSharded builds the sharded packed relation of kind k over g. The
// build sweeps one shard at a time with the shared worker pool (one
// BFS scratch per worker, reused across shards) and spills finished
// shards as the residency bound fills; the first row error aborts the
// build. Construction cost is one relation row per node (a signed BFS
// for the SP family, a plain BFS for DPE/NNE, a beam search for SBPH,
// the budgeted enumeration for SBP). A relation distance beyond uint8
// packing transparently rebuilds with int32 distance storage.
func NewSharded(k Kind, g *sgraph.Graph, opts ShardedOptions) (*ShardedMatrix, error) {
	if k < 0 || k >= numKinds {
		return nil, fmt.Errorf("compat: unknown relation kind %d", int(k))
	}
	m := newShardedMatrix(k, g, opts)
	if err := m.build(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// newShardedMatrix returns the engine of kind k over g with the shard
// geometry and parameters opts selects (defaults applied), holding no
// shards yet — what NewSharded builds and OpenSharded maps.
func newShardedMatrix(k Kind, g *sgraph.Graph, opts ShardedOptions) *ShardedMatrix {
	n := g.NumNodes()
	shardRows := opts.ShardRows
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	if shardRows > n && n > 0 {
		shardRows = n
	}
	numShards := 0
	if n > 0 {
		numShards = (n + shardRows - 1) / shardRows
	}
	maxRes := opts.MaxResidentShards
	if maxRes <= 0 || maxRes >= numShards {
		maxRes = numShards // fully resident, no spill
	} else if maxRes < 2 {
		maxRes = 2 // tile passes need a resident shard pair
	}
	m := &ShardedMatrix{
		dyn:       sgraph.NewDynamic(g),
		kind:      k,
		n:         n,
		stride:    (n + 63) / 64,
		shardRows: shardRows,
		numShards: numShards,
		maxRes:    maxRes,
		beam:      opts.BeamWidth,
		exact:     opts.Exact,
		workers:   opts.Workers,
		spillDir:  opts.SpillDir,
		noMmap:    opts.DisableMmap,
	}
	if m.beam <= 0 {
		m.beam = balance.DefaultBeamWidth
	}
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	if k != SBP && k != SBPH { // the kinds fillRows sweeps
		m.order = localityOrder(g)
	}
	return m
}

// build fills every shard, in ascending order, through fillShard —
// the path stale-shard rebuilds and wide promotion take — spilling as
// the residency bound fills. A uint8 fill returns errDistOverflow on
// the first too-large distance; build then refills wide, and the
// refill closes the narrow spill file. The fill's worker scratch goes
// with the build: the engine keeps rebuild scratch only once a
// mutation has made it rebuild a shard.
func (m *ShardedMatrix) build() error {
	m.shards = make([]shardState, m.numShards)
	for s := range m.shards {
		m.shards[s].rows = m.shardLen(s)
	}
	m.lru = container.NewIndexLRU(m.numShards)
	g, epoch := m.dyn.Snapshot()
	scratches, workers := newWorkerScratches(m.workers, m.n)
	err := m.refill(g, epoch, false, false, workers, scratches)
	if errors.Is(err, errDistOverflow) {
		// The narrow pass is thrown away, so its reloads and peaks
		// are too: the stats describe the build that is kept.
		m.mu.Lock()
		m.spillLoads.Store(0)
		m.peakResident = 0
		m.symSnapshotPeak = 0
		m.mu.Unlock()
		err = m.refill(g, epoch, true, false, workers, scratches)
	}
	if err != nil {
		return err
	}
	// The relation is immutable from here on, so cold shards can be
	// served as zero-copy views into the mapping (when it exists and
	// matches the host byte order). Construction's fills are not
	// mutation rebuilds.
	m.mu.Lock()
	m.views = m.spill != nil && m.spill.canView()
	m.mu.Unlock()
	m.rebuilds.Store(0)
	m.swept = nil // like the scratch, the sweeps' graph goes with the build
	return nil
}

// refill marks every shard stale and refills them all from graph
// snapshot g at the given distance packing, in ascending order so that
// SBPH tiles see fresh sources: construction, its narrow→wide retry
// and a post-mutation wide promotion. The old spill file's slots no
// longer match the new slab shape, so it goes in the same critical
// section that stales every shard — a reader can never find a fresh
// shard spilled to a file that is gone. Construction closes it, as
// nothing aliases it yet; a promotion retires it, kept mapped for the
// views it exposed. Zero-copy views are off until build turns them
// back on. A shard's old slabs go when its own fill claims its
// residency slot. The lock-free table is republished once the loop
// ends, not per shard: until then a filled shard's readers take the
// locked path.
func (m *ShardedMatrix) refill(g *sgraph.Graph, epoch uint64, wide, retireSpill bool, workers int, scratches []*rowScratch) error {
	m.mu.Lock()
	if m.spill != nil {
		if retireSpill {
			m.retired = append(m.retired, m.spill)
		} else {
			m.spill.close()
		}
		m.spill = nil
	}
	m.views = false
	m.wide = wide
	m.staleAllLocked()
	m.mu.Unlock()
	var err error
	for s := 0; s < m.numShards && err == nil; s++ {
		err = m.fillShard(g, epoch, s, workers, scratches)
	}
	m.mu.Lock()
	m.publishLocked()
	m.mu.Unlock()
	return err
}

// fillShard recomputes stale shard s against graph snapshot g into
// fresh slabs (never into exposed ones) and swaps them in — the one
// fill path behind construction, stale-shard rebuilds and wide
// promotion; the caller republishes the lock-free table afterwards.
// A stale shard is out of the lock-free table, never
// pinned, and its locked readers wait on freshMu, so its old slabs are
// dropped up front and its residency slot is claimed before the new
// slab is allocated: a spilling engine never holds more than
// MaxResidentShards slabs, the one being filled included. For
// SBPH the directed fill is followed by the lower-triangle tile passes
// against shards 0..s-1, which are fresh by the caller's ascending
// order.
func (m *ShardedMatrix) fillShard(g *sgraph.Graph, epoch uint64, s int, workers int, scratches []*rowScratch) error {
	m.mu.Lock()
	sh := &m.shards[s]
	if sh.bits != nil {
		sh.shardSlabs = shardSlabs{}
		sh.dirty = false
		m.resident--
		m.lru.Remove(s)
	}
	err := m.makeRoomLocked()
	if err == nil {
		m.admitLocked()
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}

	slab := m.newSlab(sh.rows) // fillRows writes every cell
	err = m.fillRows(g, m.sweepGraph(g, epoch), slab, s*m.shardRows, sh.rows, workers, scratches)
	if err == nil && m.kind == SBPH {
		err = m.symmetriseSlab(workers, slab, sh.rows, s)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.resident-- // release the claimed slot
		return err
	}
	sh.shardSlabs = slab
	m.lru.Touch(s)
	sh.epoch = epoch
	sh.dirty = true // newer than any spilled copy
	// Clear staleness only if no mutation was applied after the graph
	// snapshot this fill used; otherwise the shard stays stale and the
	// next access rebuilds again (conservative, and rare: it needs a
	// mutation racing the rebuild).
	if epoch == m.curEpoch {
		sh.stale = false
		m.staleCount--
	}
	m.rebuilds.Add(1)
	return nil
}

// sweepGraph returns graph snapshot g (at epoch) relabelled into the
// engine's locality order, for fillRows' sweeps; nil for SBP and SBPH,
// which do not sweep. The copy is derived once per snapshot and kept,
// one at a time, so every shard of a build, or of one epoch's
// rebuilds, sweeps the same copy. Fills run one at a time
// (construction, then under freshMu), and so do their calls here.
func (m *ShardedMatrix) sweepGraph(g *sgraph.Graph, epoch uint64) *sgraph.Graph {
	if m.order == nil {
		return nil
	}
	if m.swept == nil || m.sweptEpoch != epoch {
		m.swept, m.sweptEpoch = g.Relabel(m.order), epoch
	}
	return m.swept
}

// symmetriseSlab rewrites shard s's freshly filled, detached slab from
// directed SBPH rows into the canonicalised relation (entry (u,v)
// becomes row min(u,v)'s view of max(u,v)): tiles against the pinned
// slabs of shards 0..s-1, then the diagonal tile against a snapshot of
// the slab's own bits. An off-diagonal tile writes only the slab and
// reads only shard a's upper-triangle entries, which no tile ever
// modifies, so it needs no copy; the diagonal tile does (one word can
// mix lower- and upper-triangle bits of two rows being processed in
// parallel). Peak transient memory is therefore one shard bit slab on
// top of the slab and the one pinned shard.
func (m *ShardedMatrix) symmetriseSlab(workers int, slab shardSlabs, rows, s int) error {
	base := s * m.shardRows
	dst := shardTile{shardSlabs: slab, base: base, rows: rows}
	for a := 0; a < s; a++ {
		err := m.withPinned(a, func(shA *shardState) error {
			return m.symmetriseTile(workers, dst, shardTile{
				shardSlabs: shA.shardSlabs, base: a * m.shardRows, rows: shA.rows,
			})
		})
		if err != nil {
			return err
		}
	}
	snap := make([]uint64, len(slab.bits))
	m.symSnapshotPeak = max(m.symSnapshotPeak, len(snap)*8)
	copy(snap, slab.bits)
	return m.symmetriseTile(workers, dst, shardTile{
		shardSlabs: shardSlabs{bits: snap, dist8: slab.dist8, dist32: slab.dist32}, base: base, rows: rows,
	})
}

// shardTile is one side of a symmetrise tile: a shard's slabs (a
// pinned resident shard, the detached slab being filled, or the
// diagonal snapshot) with its global row base — detached from the shard
// table so the tile pass can target buffers that are not swapped in
// yet.
type shardTile struct {
	shardSlabs
	base int
	rows int
}

// symmetriseTile rewrites, for every row u of tile dst, the columns
// falling in src's row range with v < u: bit (u,v) := src bit (v,u)
// and dist (u,v) := src dist (v,u). Writes land only in dst and reads
// only in src's upper-triangle entries, so rows proceed in parallel.
func (m *ShardedMatrix) symmetriseTile(workers int, dst, src shardTile) error {
	stride, n := m.stride, m.n
	return container.ParallelFor(dst.rows, workers, func(_, i int) error {
		u := dst.base + i
		row := dst.bits[i*stride : (i+1)*stride]
		vEnd := src.base + src.rows
		if vEnd > u {
			vEnd = u // strictly lower triangle
		}
		for v := src.base; v < vEnd; v++ {
			sr := v - src.base
			if src.bits[sr*stride+u>>6]&(1<<uint(u&63)) != 0 {
				setWordBit(row, sgraph.NodeID(v))
			} else {
				clearWordBit(row, sgraph.NodeID(v))
			}
			if m.wide {
				dst.dist32[i*n+v] = src.dist32[sr*n+u]
			} else {
				dst.dist8[i*n+v] = src.dist8[sr*n+u]
			}
		}
		return nil
	})
}
