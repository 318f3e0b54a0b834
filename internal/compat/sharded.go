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
// engine for reuse once a mutation has made it rebuild a shard. The
// sweep kinds also hold their locality order (4 bytes per node) and,
// from a fill on, one relabelled copy of the graph snapshot it swept
// (the size of the graph's adjacency), dropped at the end of
// construction and kept from the first rebuild on. A
// single shard holding every row (ShardRows ≥ NumNodes) is the
// "matrix" configuration: one slab, all resident. It implements
// Relation and PackedRelation, so the team pickers, CostWith,
// Precompute and ComputeStats all run on it unchanged.
//
// SBPH symmetrisation runs inside each shard's fill, as shard-pair
// tiles against the earlier shards: only the diagonal tile needs a
// snapshot, and only of the slab's own bits, so the transient memory
// on top of the slabs is one shard's bit slab.

package compat

import (
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
	// spills. Spilling clamps the bound to at least 2: an SBPH shard
	// fill holds its slab and one earlier shard for its symmetrise
	// tiles.
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
// Construction, the rebuild of a shard a mutation staled, and the
// promotion to int32 distances all fill shards one way: each claims the
// shard's residency slot, fills a fresh slab and swaps it in, so a
// spilling engine never holds more than MaxResidentShards slabs
// (sharded_build.go; residency in sharded_resident.go, mutation in
// sharded_mutate.go, reads in sharded_read.go).
//
// Call Close to release the spill file; Close is idempotent. Close
// unmaps the spill file, so on mapped-spill matrices every row or
// distance view previously handed out dies with it — Close only after
// the matrix's consumers are done.
type ShardedMatrix struct {
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

	// order is the locality order the packed sweeps relabel the graph
	// into (order[i] is the node that becomes i; see localityOrder);
	// nil for SBP and SBPH. Mutations never change the node count, so
	// the order is fixed for the engine's lifetime. swept is the
	// current snapshot relabelled, the graph of epoch sweptEpoch (see
	// sweepGraph).
	order      []sgraph.NodeID
	swept      *sgraph.Graph
	sweptEpoch uint64

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
	// advanced by Mutate as it stales the shards, so a rebuild
	// that captured its graph snapshot before a racing mutation's
	// invalidation cannot clear staleness it shouldn't (the swap-in
	// compares its build epoch against curEpoch). staleCount is the
	// dirty-shard gauge for /stats. pin is the epoch pin: snapshots
	// hold its read side, Mutate its write side.
	pin        sync.RWMutex
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
	// slabs. Off during construction: its narrow→wide retry closes
	// the spill file, which a view into the mapping would outlive.
	views bool

	// readScratch is the demand path's decode buffer for the ReadAt
	// spill fallback; guarded by mu.
	readScratch []byte

	// spillLoads is written under mu but loaded lock-free, so a live
	// /stats scrape never contends with the query path's lock.
	spillLoads atomic.Int64

	// Test hooks: peakResident under mu; symSnapshotPeak (bytes of the
	// largest symmetrise snapshot) by the shard fills (under freshMu
	// after construction).
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
	pins  int  // tile passes and Save holding the shard in place

	// epoch is the graph epoch the shard's data was computed at; stale
	// marks data invalidated by a later mutation (rebuilt lazily by the
	// next rowView).
	epoch uint64
	stale bool
}

// Kind returns the relation kind the matrix materialises.
func (m *ShardedMatrix) Kind() Kind { return m.kind }

// Graph returns the current signed graph snapshot.
func (m *ShardedMatrix) Graph() *sgraph.Graph { return m.dyn.Graph() }

// Epoch returns the current graph epoch.
func (m *ShardedMatrix) Epoch() uint64 { return m.dyn.Epoch() }

// NumNodes returns the node count of the underlying graph.
func (m *ShardedMatrix) NumNodes() int { return m.n }

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
// for serving-time scrapes (/stats), followed by the engine's mutation
// counters. The counters are atomics, so taking a snapshot barely
// touches the engine lock (brief acquisitions for the residency and
// staleness gauges) and never blocks a build in flight.
type EngineStats struct {
	NumShards         int
	ShardRows         int
	ResidentShards    int
	MaxResidentShards int
	SpillLoads        int64
	MutationStats
}

// LiveStats snapshots the engine's live counters; see EngineStats.
func (m *ShardedMatrix) LiveStats() EngineStats {
	m.mu.Lock()
	resident := m.resident
	m.mu.Unlock()
	return EngineStats{
		NumShards:         m.numShards,
		ShardRows:         m.shardRows,
		ResidentShards:    resident,
		MaxResidentShards: m.maxRes,
		SpillLoads:        m.spillLoads.Load(),
		MutationStats:     m.MutationStats(),
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

// Compile-time interface checks.
var (
	_ Relation       = (*ShardedMatrix)(nil)
	_ PackedRelation = (*ShardedMatrix)(nil)
)
