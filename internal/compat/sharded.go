// The packed all-pairs engine. The lazy relations in relations.go
// answer point queries from a bounded row cache; ShardedMatrix instead
// materialises the whole relation up front — one bit per ordered node
// pair plus a packed distance matrix — so that the all-pairs workloads
// (Table 2 statistics, batch team formation, the Figure 2 sweeps) run
// on word-level operations with no per-query interface dispatch. The
// team package recognises packed relations and switches its candidate
// filtering and pool-degree counting to bitset AND/popcount over rows.
//
// Memory is 1 bit per ordered pair for compatibility plus 1 byte per
// ordered pair for distances (n²/8 + n² bytes); distances are uint8
// with a sentinel and promote to int32 (4n² bytes) only on graphs
// whose relation distances exceed 254. The rows are partitioned into
// fixed-height row shards: each shard is built independently by the
// shared worker-pool sweep (one signedbfs.Scratch per worker, reused
// across shards), at most MaxResidentShards shards stay in memory
// behind an LRU, and cold shards spill to a compact temporary file
// that is read back on demand. The bound covers the shards only: each
// build or rebuild worker also holds graph-sized scratch, about 85
// bytes per node, and an SPM worker adds its sweep's path counters,
// 8 bytes per node and row of the block (512 bytes per node for a full
// 64-row block, about one default shard's worth) — allocated by the
// first SPM block, freed with the build's scratch, and kept by the
// engine for reuse once a mutation has made it rebuild a shard. A
// single shard holding every row (ShardRows ≥ NumNodes) is the
// "matrix" configuration: one slab, all resident. It implements
// Relation and PackedRelation, so the team pickers, CostWith,
// Precompute and ComputeStats all run on it unchanged.
//
// SBPH symmetrisation runs as a blocked two-pass scheme over
// shard-pair tiles: only the diagonal tile needs a snapshot, and only
// of its own shard, so the peak transient memory during symmetrise is
// bounded by a single shard's bit slab on top of the two resident
// shards the tile pass holds.

package compat

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/balance"
	"repro/internal/container"
	"repro/internal/sgraph"
)

// DefaultShardRows is the default shard height of a ShardedMatrix.
const DefaultShardRows = 512

// ShardedOptions tunes ShardedMatrix construction.
type ShardedOptions struct {
	// Options carries the relation parameters (SBPH beam width, exact
	// SBP budgets); the row-cache capacity is ignored.
	Options
	// Workers bounds the build parallelism; ≤0 uses GOMAXPROCS.
	Workers int
	// ShardRows is the number of relation rows per shard; ≤0 selects
	// DefaultShardRows. Values ≥ NumNodes give a single shard: the
	// whole relation in one slab.
	ShardRows int
	// MaxResidentShards bounds how many shards stay in memory; ≤0 (or
	// a value ≥ the shard count) keeps everything resident and never
	// spills. Spilling clamps the bound to at least 2: the blocked
	// symmetrise pass and tile operations need a shard pair resident.
	// Build and rebuild scratch comes on top, per worker; for SPM up to
	// 512 bytes per node (see ShardedMatrix).
	MaxResidentShards int
	// SpillDir is where the cold-shard file is created; "" uses the
	// system temporary directory.
	SpillDir string
	// DisableMmap forces the portable ReadAt spill read path even on
	// platforms that support memory-mapping the spill file. Mostly for
	// tests and measurement; mapped reloads are strictly faster.
	DisableMmap bool
}

// ShardedMatrix is the fully precomputed compatibility relation: row u
// is a bitset over all nodes (bit v set ⇔ Compatible(u,v)) and the
// distance rows pack the relation-distance of every ordered pair,
// split into row shards of which at most MaxResidentShards are held in
// memory while the rest live in a compact spill file. Point queries
// transparently reload cold shards (counting each reload in
// SpillLoads), so it serves graphs whose full Θ(n²) matrix does not
// fit while keeping the word-parallel fast paths of PackedRelation.
//
// Rows agree with the lazy relation of the same kind on every pair,
// including SBPH's canonicalised symmetry (entry (u,v) is the
// heuristic search from min(u,v) to max(u,v)), and ComputeStats
// measures that same symmetrised relation on every engine (see
// Stats). The diagonal is always compatible at distance 0, mirroring
// Relation's reflexivity.
//
// Concurrency: all shard bookkeeping is guarded by one mutex, so the
// type is safe for concurrent use; row slices returned by RowWords
// remain valid after eviction or a mutation (buffers are immutable
// once exposed — rebuilds fill fresh slabs, and mapping-backed views
// stay mapped until Close). When every shard stays resident (no
// MaxResidentShards bound) reads take no lock at all: the fresh
// shards' slabs are published as an immutable table through an atomic
// pointer, and only a shard a mutation invalidated goes through the
// locked rebuild path. Where the platform supports it the spill file
// is memory-mapped read-only and cold shards are served as zero-copy
// views straight into the mapping — a reload is pointer arithmetic,
// not a decode, and view-backed resident shards occupy no heap
// (ShardedOptions.DisableMmap forces the portable ReadAt fallback).
// Spill I/O failures and failed post-mutation rebuilds (only possible
// for the budgeted exact SBP relation) are reported as errors from
// Compatible/Distance and as panics from the error-free PackedRelation
// fast paths (RowWords, DistanceRow).
//
// Call Close to release the spill file; Close is idempotent. Close
// unmaps the spill file, so on mapped-spill matrices every row or
// distance view previously handed out dies with it — Close only after
// the matrix's consumers are done.
type ShardedMatrix struct {
	g         *sgraph.Graph // construction-time snapshot; post-build readers use dyn
	dyn       *sgraph.Dynamic
	kind      Kind
	n         int
	stride    int // uint64 words per bit row
	shardRows int
	numShards int
	maxRes    int // resident-shard bound; numShards when not spilling
	wide      bool

	beam    int
	exact   balance.ExactOptions
	workers int // build parallelism, reused by post-mutation shard rebuilds

	noMmap bool // ShardedOptions.DisableMmap

	// table is the lock-free read side of a fully resident engine
	// (maxRes == numShards): the slabs of every fresh shard, republished
	// under mu whenever a shard goes stale or a rebuild lands. Nil on a
	// spilling engine, whose readers always take mu.
	table atomic.Pointer[shardTable]

	mu       sync.Mutex
	shards   []shardState
	lru      *container.IndexLRU // evictable (resident, unpinned) shards
	resident int
	spill    *shardSpill
	// retired holds spill files orphaned by a post-mutation wide
	// promotion: their slot layout no longer matches the engine, but
	// exposed zero-copy views still alias their mappings, so they stay
	// mapped until Close.
	retired  []*shardSpill
	spillDir string
	closed   bool

	// Mutation state. curEpoch (under mu) trails dyn's epoch: it is
	// advanced by invalidateLocked after stale marking, so a rebuild
	// that captured its graph snapshot before a racing mutation's
	// invalidation cannot clear staleness it shouldn't (the swap-in
	// compares its build epoch against curEpoch). staleCount is the
	// dirty-shard gauge for /stats.
	mutGuard
	freshMu    sync.Mutex // serialises post-mutation shard rebuilds
	curEpoch   uint64
	staleCount int
	mutCount   atomic.Int64
	rebuilds   atomic.Int64
	// rebuildScratch (under freshMu) is the rebuilds' worker scratch,
	// reused across them; see rebuildScratches.
	rebuildScratch []*rowScratch
	// views enables zero-copy reloads: post-build, on a mapped spill
	// whose byte order matches the host, a cold shard is served as
	// slices straight into the mapping instead of decoded into heap
	// slabs. Off during build — build-time reloads (the SBPH tile
	// pass) write into shard buffers, which a read-only view forbids.
	views bool

	// readScratch is the demand path's decode buffer for the ReadAt
	// spill fallback; guarded by mu.
	readScratch []byte

	// spillLoads is written under mu but loaded lock-free, so a live
	// /stats scrape never contends with the query path's lock.
	spillLoads atomic.Int64

	// Test hooks: peakResident under mu; symSnapshotPeak (bytes of the
	// largest symmetrise snapshot) by the build and rebuilds (freshMu).
	peakResident    int
	symSnapshotPeak int
}

// shardSlabs is one shard's buffers: heap slabs, or zero-copy slices
// into the spill mapping. Exactly one of dist8/dist32 is non-nil,
// matching the active packing; bits == nil means no slabs.
type shardSlabs struct {
	bits   []uint64
	dist8  []uint8
	dist32 []int32
}

// row slices row r (shard-relative) out of the slabs.
func (sl *shardSlabs) row(r, stride, n int) ([]uint64, DistRow) {
	return sl.bits[r*stride : (r+1)*stride], sl.distRow(r, n)
}

// distRow slices row r's distances out of the slabs.
func (sl *shardSlabs) distRow(r, n int) DistRow {
	if sl.dist32 != nil {
		return DistRow{d32: sl.dist32[r*n : (r+1)*n]}
	}
	return DistRow{d8: sl.dist8[r*n : (r+1)*n]}
}

// shardTable is one immutable publication of the resident shards'
// slabs: entry s holds shard s's slabs while it is fresh, and is empty
// while it is stale (its readers fall back to the locked path, which
// rebuilds it).
type shardTable struct {
	slabs []shardSlabs
}

// shardState is one row shard: rows [index*shardRows, …) of the packed
// matrix. bits == nil means the shard is spilled.
type shardState struct {
	shardSlabs
	rows  int
	dirty bool // resident content newer than the spilled copy
	pins  int  // build/tile passes holding the shard in place

	// epoch is the graph epoch the shard's data was computed at; stale
	// marks data invalidated by a later mutation (rebuilt lazily by the
	// next rowView). touched is a node bitset (stride words): the union
	// over the shard's rows of each row's plain-BFS reachable set — a
	// conservative superset of every vertex any row's search relaxed
	// through, for every relation kind (a beam or signed search only
	// traverses graph edges, so its footprint is within plain
	// reachability). A mutation of edge (u,v) can change a row of this
	// shard only if the row's search could reach u or v, hence the
	// shard is invalidated iff touched∩{u,v} ≠ ∅. The set stays valid
	// while the shard is clean: any mutation that could change the
	// shard's reachable sets would itself have hit touched and marked
	// the shard stale. A single-shard engine records no set (nil): every
	// mutation stales its one shard, and the tracking would only slow
	// the build.
	epoch   uint64
	stale   bool
	touched []uint64
}

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
	err := m.build(m.workers, false)
	if errors.Is(err, errDistOverflow) {
		// A distance beyond uint8 packing exists: rebuild every shard
		// with exact int32 storage (fresh spill file, fresh slabs).
		err = m.build(m.workers, true)
	}
	if err != nil {
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
		g:         g,
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
	return m
}

// Kind returns the relation kind the matrix materialises.
func (m *ShardedMatrix) Kind() Kind { return m.kind }

// Graph returns the current signed graph snapshot.
func (m *ShardedMatrix) Graph() *sgraph.Graph { return m.dyn.Graph() }

// Epoch returns the current graph epoch.
func (m *ShardedMatrix) Epoch() uint64 { return m.dyn.Epoch() }

// Mutate applies one edge mutation and invalidates only the shards it
// can affect: a shard is marked stale iff its touched-vertex set
// intersects the mutated edge's endpoints (see shardState.touched for
// the soundness argument; a single shard is always staled). For SBPH,
// whose symmetrised lower triangle mirrors the directed rows of earlier
// shards, staleness propagates to every later shard, so the stale
// region is always a suffix. Stale shards leave the lock-free table and
// rebuild lazily on next access via the same worker-pool fill path as
// construction; exposed row and distance views keep aliasing their
// pre-mutation slabs.
func (m *ShardedMatrix) Mutate(mut sgraph.Mutation) (MutationResult, error) {
	m.pin.Lock()
	defer m.pin.Unlock()
	_, epoch, err := m.dyn.Apply(mut)
	if err != nil {
		return MutationResult{Epoch: m.dyn.Epoch()}, err
	}
	m.mu.Lock()
	dirty := m.invalidateLocked(mut, epoch)
	m.mu.Unlock()
	m.mutCount.Add(1)
	return MutationResult{Epoch: epoch, DirtyShards: dirty}, nil
}

// invalidateLocked marks the shards mut can affect stale and returns
// how many it newly marked. Requires m.mu.
func (m *ShardedMatrix) invalidateLocked(mut sgraph.Mutation, epoch uint64) int {
	m.curEpoch = epoch
	marked := 0
	mark := func(s int) {
		if !m.shards[s].stale {
			m.shards[s].stale = true
			m.staleCount++
			marked++
		}
	}
	if m.kind == SBPH {
		// Stale shards always form a suffix (this loop only ever marks
		// suffixes), so the fresh prefix is scanned front to back and
		// the first affected shard stales everything after it.
		for s := 0; s < m.numShards && !m.shards[s].stale; s++ {
			if m.shardTouchedLocked(s, mut) {
				for t := s; t < m.numShards; t++ {
					mark(t)
				}
				break
			}
		}
	} else {
		for s := 0; s < m.numShards; s++ {
			if !m.shards[s].stale && m.shardTouchedLocked(s, mut) {
				mark(s)
			}
		}
	}
	if marked > 0 {
		m.publishLocked()
	}
	return marked
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

// shardTouchedLocked reports whether shard s's touched-vertex set
// contains either endpoint of mut. A missing set — a single-shard
// engine records none — is conservatively treated as touched.
func (m *ShardedMatrix) shardTouchedLocked(s int, mut sgraph.Mutation) bool {
	t := m.shards[s].touched
	if t == nil {
		return true
	}
	return t[int(mut.U)>>6]&(1<<uint(int(mut.U)&63)) != 0 ||
		t[int(mut.V)>>6]&(1<<uint(int(mut.V)&63)) != 0
}

// MutationStats reports the engine's mutation counters.
func (m *ShardedMatrix) MutationStats() MutationStats {
	m.mu.Lock()
	stale := m.staleCount
	m.mu.Unlock()
	return MutationStats{
		Epoch:         m.dyn.Epoch(),
		Mutations:     m.mutCount.Load(),
		StaleShards:   stale,
		ShardRebuilds: m.rebuilds.Load(),
	}
}

// AcquireSnapshot pins the current epoch until Release: mutations
// block, so every query in between sees one graph version. Rebuilds of
// *pre-existing* stale shards may still run during the snapshot — they
// target the pinned epoch, so the view stays consistent.
func (m *ShardedMatrix) AcquireSnapshot() Snapshot {
	m.pin.RLock()
	return Snapshot{rel: m, epoch: m.dyn.Epoch()}
}

// freshen rebuilds stale shards so that shard s is fresh on return
// (barring a mutation racing in behind it, which the caller's loop
// re-checks). Non-SBPH kinds rebuild exactly shard s; SBPH rebuilds
// every stale shard up to s in ascending order, because shard s's
// lower-triangle tiles read the directed rows of all earlier shards.
// Rebuilds fill entirely fresh slabs and swap them in under the lock
// (republishing the lock-free table), so concurrent readers of other
// shards proceed and old views survive.
func (m *ShardedMatrix) freshen(s int) error {
	m.freshMu.Lock()
	defer m.freshMu.Unlock()
	m.mu.Lock()
	if !m.shards[s].stale {
		m.mu.Unlock()
		return nil // another freshener got here first
	}
	g, epoch := m.dyn.Snapshot()
	var targets []int
	if m.kind == SBPH {
		for a := 0; a <= s; a++ {
			if m.shards[a].stale {
				targets = append(targets, a)
			}
		}
	} else {
		targets = []int{s}
	}
	m.mu.Unlock()

	scratches, workers := m.rebuildScratches()
	for _, t := range targets {
		err := m.rebuildShard(g, epoch, t, workers, scratches)
		if errors.Is(err, errDistOverflow) {
			// The mutation stretched a relation distance beyond uint8
			// packing: promote the whole engine to int32 storage.
			return m.promoteWide(g, epoch)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildScratches returns the post-mutation rebuilds' worker
// scratches, allocated by the first rebuild and kept for the later
// ones (their sweeps and SPM counter slabs are graph-sized, so a
// rebuild of one small shard would otherwise pay for allocating and
// zeroing them again). Callers hold freshMu.
func (m *ShardedMatrix) rebuildScratches() ([]*rowScratch, int) {
	if m.rebuildScratch == nil {
		m.rebuildScratch, _ = newWorkerScratches(m.workers, m.n)
	}
	return m.rebuildScratch, len(m.rebuildScratch)
}

// rebuildShard recomputes shard s against graph snapshot g into fresh
// slabs (never into exposed ones) and swaps them in. For SBPH the
// directed fill is followed by the lower-triangle tile passes against
// shards 0..s, which are fresh by the caller's ascending order.
func (m *ShardedMatrix) rebuildShard(g *sgraph.Graph, epoch uint64, s int, workers int, scratches []*rowScratch) error {
	rows := m.shardLen(s)
	base := s * m.shardRows
	slab := m.newBlankSlab(rows)
	m.armReach(scratches)
	sink := slabSink(slab.bits, slab.dist8, slab.dist32, m.stride, m.n, base)
	fill, height := relationFiller(g, m.kind, m.beam, m.exact, sink)
	if err := fillRows(base, rows, height, workers, scratches, fill); err != nil {
		return err
	}
	touched := m.mergeReach(scratches)

	if m.kind == SBPH {
		if err := m.symmetriseSlab(workers, slab, rows, s, new([]uint64)); err != nil {
			return err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	sh := &m.shards[s]
	wasResident := sh.bits != nil
	if !wasResident {
		if err := m.makeRoomLocked(); err != nil {
			return err
		}
	}
	sh.shardSlabs = slab
	if !wasResident {
		m.admitLocked()
		if sh.pins == 0 {
			m.lru.Touch(s)
		}
	}
	sh.epoch = epoch
	sh.touched = touched
	sh.dirty = true // newer than any spilled copy
	// Clear staleness only if no mutation was applied after the graph
	// snapshot this rebuild used; otherwise the shard stays stale and
	// the next access rebuilds again (conservative, and rare: it needs
	// a mutation racing the rebuild).
	if !sh.stale {
		m.staleCount++ // keep the gauge balanced before the decrement below
	}
	sh.stale = epoch != m.curEpoch
	if !sh.stale {
		m.staleCount--
	}
	m.publishLocked()
	m.rebuilds.Add(1)
	return nil
}

// armReach arms (or rezeroes) the workers' reach accumulators before a
// multi-shard fill; a single shard records no touched set.
func (m *ShardedMatrix) armReach(scratches []*rowScratch) {
	if m.numShards < 2 {
		return
	}
	for _, sc := range scratches {
		sc.resetReach(m.stride)
	}
}

// mergeReach unions the workers' reach accumulators into the filled
// shard's touched set; nil on a single shard, where armReach left them
// unarmed.
func (m *ShardedMatrix) mergeReach(scratches []*rowScratch) []uint64 {
	if m.numShards < 2 {
		return nil
	}
	touched := make([]uint64, m.stride)
	for _, sc := range scratches {
		for i, w := range sc.reach {
			touched[i] |= w
		}
	}
	return touched
}

// symmetriseSlab runs the SBPH lower-triangle tile passes for shard
// s's slab — resident and pinned at build, detached (not yet swapped
// in) on a rebuild: tiles against the pinned slabs of shards 0..s-1,
// then the diagonal tile against a snapshot of the slab's own bits,
// taken into *snapshot (grown as needed, reused across calls).
func (m *ShardedMatrix) symmetriseSlab(workers int, slab shardSlabs, rows, s int, snapshot *[]uint64) error {
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
	if cap(*snapshot) < len(slab.bits) {
		*snapshot = make([]uint64, len(slab.bits))
		m.symSnapshotPeak = max(m.symSnapshotPeak, len(slab.bits)*8)
	}
	snap := (*snapshot)[:len(slab.bits)]
	copy(snap, slab.bits)
	return m.symmetriseTile(workers, dst, shardTile{
		shardSlabs: shardSlabs{bits: snap, dist8: slab.dist8, dist32: slab.dist32}, base: base, rows: rows,
	})
}

// promoteWide rebuilds every shard with int32 distance storage after a
// mutation pushed a relation distance beyond uint8 packing. The old
// spill file's slots no longer match the engine's slab shape, so it is
// retired — kept mapped (exposed views alias it) but never written
// again — and a fresh spill is created lazily on the next eviction.
// Zero-copy views stay off afterwards: re-enabling them would need a
// fully rewritten spill, and wide promotion is a once-per-graph event.
func (m *ShardedMatrix) promoteWide(g *sgraph.Graph, epoch uint64) error {
	m.mu.Lock()
	m.wide = true
	m.views = false
	if m.spill != nil {
		m.retired = append(m.retired, m.spill)
		m.spill = nil
	}
	// The narrow slabs are useless now: drop unpinned resident shards
	// and stale-mark everything for the rebuild loop below. (Pins are
	// impossible here: tile passes only pin fresh shards, and freshMu
	// serialises us against them.)
	for s := range m.shards {
		sh := &m.shards[s]
		if sh.bits != nil {
			sh.shardSlabs = shardSlabs{}
			m.resident--
			m.lru.Remove(s)
		}
		sh.dirty = false
		if !sh.stale {
			sh.stale = true
			m.staleCount++
		}
	}
	m.publishLocked()
	m.mu.Unlock()

	// Rebuild ascending so SBPH tiles see fresh sources.
	scratches, workers := m.rebuildScratches()
	for s := 0; s < m.numShards; s++ {
		if err := m.rebuildShard(g, epoch, s, workers, scratches); err != nil {
			return err
		}
	}
	return nil
}

// NumNodes returns the node count of the underlying graph.
func (m *ShardedMatrix) NumNodes() int { return m.n }

// WordsPerRow returns the uint64 word length of each bit row —
// (NumNodes+63)/64, the same layout container.NewBitset(NumNodes)
// uses, so rows and bitsets compose in word-parallel operations.
func (m *ShardedMatrix) WordsPerRow() int { return m.stride }

// NumShards returns the number of row shards.
func (m *ShardedMatrix) NumShards() int { return m.numShards }

// ShardRows returns the shard height (the last shard may be shorter).
func (m *ShardedMatrix) ShardRows() int { return m.shardRows }

// MaxResidentShards returns the effective residency bound.
func (m *ShardedMatrix) MaxResidentShards() int { return m.maxRes }

// ResidentShards returns how many shards are currently in memory.
func (m *ShardedMatrix) ResidentShards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident
}

// SpillLoads returns how many shard reloads the matrix has performed —
// zero when everything stayed resident. Lock-free, safe to scrape
// while queries and builds are in flight.
func (m *ShardedMatrix) SpillLoads() int64 { return m.spillLoads.Load() }

// EngineStats is the packed engine's live observability snapshot: the
// shard geometry, current residency and spill-reload count, gathered
// for serving-time scrapes (/stats). The counters are atomics, so
// taking a snapshot barely touches the engine lock (one brief
// acquisition for the residency and staleness gauges) and never blocks
// a build in flight.
type EngineStats struct {
	NumShards         int
	ShardRows         int
	ResidentShards    int
	MaxResidentShards int
	SpillLoads        int64

	// Mutation counters: the current graph epoch, mutations applied,
	// shards currently invalidated and awaiting rebuild, and lazy shard
	// rebuilds performed so far.
	Epoch         uint64
	Mutations     int64
	StaleShards   int
	ShardRebuilds int64
}

// LiveStats snapshots the engine's live counters; see EngineStats.
func (m *ShardedMatrix) LiveStats() EngineStats {
	m.mu.Lock()
	resident, stale := m.resident, m.staleCount
	m.mu.Unlock()
	return EngineStats{
		NumShards:         m.numShards,
		ShardRows:         m.shardRows,
		ResidentShards:    resident,
		MaxResidentShards: m.maxRes,
		SpillLoads:        m.spillLoads.Load(),
		Epoch:             m.dyn.Epoch(),
		Mutations:         m.mutCount.Load(),
		StaleShards:       stale,
		ShardRebuilds:     m.rebuilds.Load(),
	}
}

// Close releases the spill file. Resident shards stay queryable, but a
// query touching a spilled shard after Close errors (or panics on the
// PackedRelation fast paths). Close is idempotent.
func (m *ShardedMatrix) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var err error
	for _, sp := range m.retired {
		if cerr := sp.close(); err == nil {
			err = cerr
		}
	}
	m.retired = nil
	if m.spill != nil {
		if cerr := m.spill.close(); err == nil {
			err = cerr
		}
		m.spill = nil
	}
	return err
}

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

// computeRow lets ComputeStats stream sharded rows like any other
// relation's: one shard touch per source row, then lock-free scans
// over the returned views.
func (m *ShardedMatrix) computeRow(u sgraph.NodeID) (row, error) {
	words, dist, err := m.rowView(u)
	if err != nil {
		return nil, err
	}
	return shardedRowView{words: words, dist: dist}, nil
}

// shardedRowView is one source row detached from shard bookkeeping:
// plain slices, no locking per query.
//
//tfsn:viewtype
type shardedRowView struct {
	words []uint64
	dist  DistRow
}

func (r shardedRowView) compatible(v sgraph.NodeID) bool {
	return r.words[int(v)>>6]&(1<<uint(int(v)&63)) != 0
}

func (r shardedRowView) distance(v sgraph.NodeID) (int32, bool) { return r.dist.At(v) }

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

// ---------------------------------------------------------------------------
// Residency bookkeeping. All helpers below require m.mu held.

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

// newBlankSlab is newSlab with every distance preset to the packing's
// "undefined" sentinel — the state the relation fillers expect, since
// they write only defined distances.
func (m *ShardedMatrix) newBlankSlab(rows int) shardSlabs {
	slab := m.newSlab(rows)
	for i := range slab.dist8 {
		slab.dist8[i] = noDist8
	}
	for i := range slab.dist32 {
		slab.dist32[i] = noDist32
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

// ---------------------------------------------------------------------------
// Construction.

// build fills every shard, spilling as the residency bound fills, then
// runs the blocked symmetrise pass for SBPH. wide selects int32
// distance storage; a uint8 build returns errDistOverflow on the first
// too-large distance and NewSharded retries wide.
func (m *ShardedMatrix) build(workers int, wide bool) error {
	m.mu.Lock()
	// Reset any previous attempt (the uint8 → int32 retry).
	if m.spill != nil {
		m.spill.close()
		m.spill = nil
	}
	m.wide = wide
	m.shards = make([]shardState, m.numShards)
	for s := range m.shards {
		m.shards[s].rows = m.shardLen(s)
	}
	m.lru = container.NewIndexLRU(m.numShards)
	m.resident = 0
	m.curEpoch = m.dyn.Epoch()
	m.staleCount = 0
	m.spillLoads.Store(0)
	m.peakResident = 0
	m.symSnapshotPeak = 0
	m.views = false // build-time reloads are written into; no views yet
	m.mu.Unlock()
	if m.n == 0 {
		return nil
	}

	// One scratch per worker, shared across every shard sweep: the
	// BFS state is sized for the whole graph, not the shard.
	scratches, workers := newWorkerScratches(workers, m.n)
	for s := 0; s < m.numShards; s++ {
		if err := m.buildShard(s, workers, scratches); err != nil {
			return err
		}
	}
	if m.kind == SBPH {
		if err := m.symmetrise(workers); err != nil {
			return err
		}
	}
	// The relation is immutable from here on, so cold shards can be
	// served as zero-copy views into the mapping (when it exists and
	// matches the host byte order), and a fully resident engine's
	// readers can go lock-free.
	m.mu.Lock()
	m.views = m.spill != nil && m.spill.canView()
	m.publishLocked()
	m.mu.Unlock()
	return nil
}

// buildShard computes shard s's directed rows with the worker pool.
// The shard is materialised fresh (it has no spilled copy yet) and
// pinned for the duration of the sweep.
func (m *ShardedMatrix) buildShard(s int, workers int, scratches []*rowScratch) error {
	m.mu.Lock()
	sh := &m.shards[s]
	if err := m.makeRoomLocked(); err != nil {
		m.mu.Unlock()
		return err
	}
	sh.shardSlabs = m.newBlankSlab(sh.rows)
	m.admitLocked()
	sh.pins++
	m.mu.Unlock()

	base := s * m.shardRows
	// Arm reach tracking: the fillers accumulate each row's plain-BFS
	// reachable set per worker, merged below into the shard's touched
	// bitset — what mutation invalidation tests edge endpoints against.
	m.armReach(scratches)
	sink := slabSink(sh.bits, sh.dist8, sh.dist32, m.stride, m.n, base)
	fill, height := relationFiller(m.g, m.kind, m.beam, m.exact, sink)
	err := fillRows(base, sh.rows, height, workers, scratches, fill)
	touched := m.mergeReach(scratches)
	m.mu.Lock()
	sh.dirty = true
	sh.epoch = m.dyn.Epoch() // construction runs at epoch 0
	sh.touched = touched
	m.unpinLocked(s)
	m.mu.Unlock()
	return err
}

// symmetrise rewrites the lower triangle from the upper one in
// shard-pair tiles, turning the directed SBPH rows into the
// canonicalised relation (entry (u,v) becomes row min(u,v)'s view of
// max(u,v)) without a full-matrix snapshot. For an off-diagonal tile
// (a < b) the writes touch only shard b and the reads only shard a's
// upper-triangle entries, which no tile ever modifies, so no copy is
// needed at all;
// the diagonal tile snapshots its own shard's bit slab (one word can
// mix lower- and upper-triangle bits of two rows being processed in
// parallel). Peak transient memory is therefore one shard bit slab on
// top of the two pinned shards.
func (m *ShardedMatrix) symmetrise(workers int) error {
	var snapshot []uint64 // diagonal-tile scratch, reused across shards
	for b := 0; b < m.numShards; b++ {
		err := m.withPinned(b, func(shB *shardState) error {
			m.mu.Lock()
			shB.dirty = true // about to be rewritten; the pin defers eviction
			m.mu.Unlock()
			return m.symmetriseSlab(workers, shB.shardSlabs, shB.rows, b, &snapshot)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// shardTile is one side of a symmetrise tile: a shard's slabs (resident
// state, a detached rebuild slab, or the diagonal snapshot) with its
// global row base — detached from the shard table so the tile pass can
// target buffers that are not swapped in yet.
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
	return parallelSweep(dst.rows, workers, func(_, i int) error {
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

// Compile-time interface checks.
var (
	_ Relation        = (*ShardedMatrix)(nil)
	_ PackedRelation  = (*ShardedMatrix)(nil)
	_ MutableRelation = (*ShardedMatrix)(nil)
)
