// The packed all-pairs engine. The lazy relations in relations.go
// answer point queries from a bounded row cache; CompatMatrix instead
// materialises the whole relation up front — one bit per ordered node
// pair plus a packed distance matrix — so that the all-pairs workloads
// (Table 2 statistics, batch team formation, the Figure 2 sweeps) run
// on word-level operations with no per-query interface dispatch. The
// team package recognises matrix-backed relations and switches its
// candidate filtering and pool-degree counting to bitset AND/popcount
// over matrix rows.
//
// Memory is 1 bit per ordered pair for compatibility plus 1 byte per
// ordered pair for distances (n²/8 + n² bytes); distances are uint8
// with a sentinel and promote to int32 (4n² bytes) only on graphs
// whose relation distances exceed 254. The engine therefore targets
// moderate node counts — for full-scale sparse graphs the lazy engine
// remains the right backend.
//
// Mutation model: the matrix is one monolithic slab, so the engine is
// the degenerate single-shard case of the sharded engine's dirty-shard
// scheme — any mutation stales the whole slab. The filled matrices
// live in an immutable matrixState published through an atomic
// pointer; a read that observes an epoch ahead of its state rebuilds
// into entirely fresh slabs and republishes. Rows and distance views
// handed out earlier keep aliasing the old state, which the garbage
// collector retains for as long as anyone points at it — mutations
// never tear an exposed row.

package compat

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// Distance-matrix packing: distances are stored as uint8 with noDist8
// meaning "undefined"; any value above maxDist8 forces the int32
// fallback, where noDist32 marks undefined entries.
const (
	noDist8  = 0xFF
	maxDist8 = 0xFE
	noDist32 = int32(-1)
)

// errDistOverflow aborts a uint8 build when a relation distance
// exceeds maxDist8; the builder retries with int32 storage.
var errDistOverflow = errors.New("compat: distance exceeds uint8 packing")

// MatrixOptions tunes CompatMatrix construction.
type MatrixOptions struct {
	// Options carries the relation parameters (SBPH beam width, exact
	// SBP budgets); the row-cache capacity is ignored.
	Options
	// Workers bounds the build parallelism; ≤0 uses GOMAXPROCS.
	Workers int
}

// matrixState is one epoch's fully built matrix: the graph snapshot it
// was computed from plus the packed slabs. States are immutable once
// published; rebuilds allocate fresh slabs, so views into an old state
// stay valid across mutations.
type matrixState struct {
	g      *sgraph.Graph
	epoch  uint64
	bits   []uint64 // n rows × stride words
	dist8  []uint8  // n×n packed distances; nil when dist32 is active
	dist32 []int32  // exact distances; non-nil only after uint8 overflow
}

// CompatMatrix is a fully precomputed compatibility relation: row u is
// a bitset over all nodes (bit v set ⇔ Compatible(u,v)) and the
// distance matrix packs the relation-distance of every ordered pair.
// It implements Relation, so every consumer of the lazy engine works
// unchanged, and point queries only error when a post-mutation rebuild
// fails (possible only for the budgeted exact SBP relation).
//
// Rows agree with the lazy relation of the same kind on every pair,
// including SBPH's canonicalised symmetry (entry (u,v) is the
// heuristic search from min(u,v) to max(u,v)). The diagonal is always
// compatible at distance 0, mirroring Relation's reflexivity.
//
// ComputeStats agrees across engines too — on every kind: since the
// stats unification, directed SBPH row streams are measured over
// their canonical upper triangle, which reproduces exactly the
// symmetrised rows materialised here (StatsOptions.DirectedSBPH
// restores the directed measurement).
type CompatMatrix struct {
	dyn     *sgraph.Dynamic
	kind    Kind
	n       int
	stride  int // uint64 words per bit row
	beam    int // SBPH beam width
	exact   balance.ExactOptions
	workers int

	state atomic.Pointer[matrixState]
	// freshMu serialises post-mutation rebuilds so concurrent stale
	// readers trigger one fill, not one each.
	freshMu sync.Mutex
	mutGuard
	mutCount atomic.Int64
	rebuilds atomic.Int64
}

// NewMatrix precomputes the full compatibility matrix of kind k over
// g, in parallel with one BFS scratch per worker. Construction cost is
// one relation row per node (a signed BFS for the SP family, a plain
// BFS for DPE/NNE, a beam search for SBPH, the budgeted enumeration
// for SBP); the first row error aborts the build.
func NewMatrix(k Kind, g *sgraph.Graph, opts MatrixOptions) (*CompatMatrix, error) {
	if k < 0 || k >= numKinds {
		return nil, fmt.Errorf("compat: unknown relation kind %d", int(k))
	}
	n := g.NumNodes()
	m := &CompatMatrix{
		dyn:    sgraph.NewDynamic(g),
		kind:   k,
		n:      n,
		stride: (n + 63) / 64,
		beam:   opts.BeamWidth,
		exact:  opts.Exact,
	}
	if m.beam <= 0 {
		m.beam = balance.DefaultBeamWidth
	}
	m.workers = opts.Workers
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	st, err := m.buildState(g, 0, false)
	if err != nil {
		return nil, err
	}
	m.state.Store(st)
	return m, nil
}

// MustNewMatrix is NewMatrix that panics on error, for tests and
// benchmarks with known-good arguments.
func MustNewMatrix(k Kind, g *sgraph.Graph, opts MatrixOptions) *CompatMatrix {
	m, err := NewMatrix(k, g, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Kind returns the relation kind the matrix materialises.
func (m *CompatMatrix) Kind() Kind { return m.kind }

// Graph returns the current signed graph snapshot.
func (m *CompatMatrix) Graph() *sgraph.Graph { return m.dyn.Graph() }

// Epoch returns the current graph epoch.
func (m *CompatMatrix) Epoch() uint64 { return m.dyn.Epoch() }

// Mutate applies m and stales the whole matrix (a monolithic slab is
// one shard); the next read rebuilds it into fresh storage. Exposed
// rows keep aliasing the pre-mutation slabs.
func (m *CompatMatrix) Mutate(mut sgraph.Mutation) (MutationResult, error) {
	m.pin.Lock()
	defer m.pin.Unlock()
	_, epoch, err := m.dyn.Apply(mut)
	if err != nil {
		return MutationResult{Epoch: m.dyn.Epoch()}, err
	}
	m.mutCount.Add(1)
	return MutationResult{Epoch: epoch, DirtyShards: 1}, nil
}

// MutationStats reports the engine's mutation counters. StaleShards is
// 1 exactly when a mutation has landed and no read has rebuilt yet.
func (m *CompatMatrix) MutationStats() MutationStats {
	stale := 0
	if m.state.Load().epoch != m.dyn.Epoch() {
		stale = 1
	}
	return MutationStats{
		Epoch:         m.dyn.Epoch(),
		Mutations:     m.mutCount.Load(),
		StaleShards:   stale,
		ShardRebuilds: m.rebuilds.Load(),
	}
}

// AcquireSnapshot pins the current epoch until Release.
func (m *CompatMatrix) AcquireSnapshot() Snapshot {
	m.pin.RLock()
	return Snapshot{rel: m, epoch: m.dyn.Epoch()}
}

// cur returns the state matching the current epoch, rebuilding first
// if a mutation staled it.
func (m *CompatMatrix) cur() (*matrixState, error) {
	st := m.state.Load()
	if st.epoch == m.dyn.Epoch() {
		return st, nil
	}
	return m.freshen()
}

// curPacked is cur for the error-free packed accessors (RowWords,
// PairDistance, DistanceRow). Like the sharded engine's row views, it
// panics if a post-mutation rebuild fails — only possible for the
// budgeted exact SBP relation.
func (m *CompatMatrix) curPacked() *matrixState {
	st, err := m.cur()
	if err != nil {
		panic(err)
	}
	return st
}

// freshen rebuilds the matrix against the latest graph snapshot into
// fresh slabs and publishes the new state. On error the old state
// stays published (still answering for its own epoch) and the next
// read retries.
func (m *CompatMatrix) freshen() (*matrixState, error) {
	m.freshMu.Lock()
	defer m.freshMu.Unlock()
	st := m.state.Load()
	g, epoch := m.dyn.Snapshot()
	if st.epoch == epoch {
		return st, nil // raced with another freshener
	}
	// Keep int32 storage once promoted: a graph that overflowed uint8
	// once is likely to again, and flapping between packings would
	// re-run full builds for nothing.
	ns, err := m.buildState(g, epoch, st.dist32 != nil)
	if err != nil {
		return nil, err
	}
	m.rebuilds.Add(1)
	m.state.Store(ns)
	return ns, nil
}

// Compatible reports whether u and v are compatible.
func (m *CompatMatrix) Compatible(u, v sgraph.NodeID) (bool, error) {
	st, err := m.cur()
	if err != nil {
		return false, err
	}
	return st.bitAt(m.stride, u, v), nil
}

// Distance returns the relation distance of (u,v) and whether it is
// defined.
func (m *CompatMatrix) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	st, err := m.cur()
	if err != nil {
		return 0, false, err
	}
	d, ok := st.pairDistance(m.n, u, v)
	return d, ok, nil
}

// PairDistance is Distance without the error, for hot loops that have
// already recognised the matrix backend.
func (m *CompatMatrix) PairDistance(u, v sgraph.NodeID) (int32, bool) {
	return m.curPacked().pairDistance(m.n, u, v)
}

func (st *matrixState) pairDistance(n int, u, v sgraph.NodeID) (int32, bool) {
	i := int(u)*n + int(v)
	if st.dist32 != nil {
		d := st.dist32[i]
		return d, d != noDist32
	}
	d := st.dist8[i]
	return int32(d), d != noDist8
}

// NumNodes returns the node count of the underlying graph (fixed
// across mutations, which are edge-level).
func (m *CompatMatrix) NumNodes() int { return m.n }

// WordsPerRow returns the uint64 word length of each bit row —
// (NumNodes+63)/64, the same layout container.NewBitset(NumNodes)
// uses, so rows and bitsets compose in word-parallel operations.
func (m *CompatMatrix) WordsPerRow() int { return m.stride }

// RowWords returns u's compatibility row as a packed word slice (bit v
// set ⇔ Compatible(u,v); bits ≥ NumNodes are zero). The caller must
// not modify it. The view stays valid — frozen at its epoch — across
// later mutations.
func (m *CompatMatrix) RowWords(u sgraph.NodeID) []uint64 {
	return m.curPacked().rowWords(m.stride, u)
}

func (st *matrixState) rowWords(stride int, u sgraph.NodeID) []uint64 {
	return st.bits[int(u)*stride : (int(u)+1)*stride]
}

func (st *matrixState) bitAt(stride int, u, v sgraph.NodeID) bool {
	return st.bits[int(u)*stride+int(v)>>6]&(1<<uint(int(v)&63)) != 0
}

func (m *CompatMatrix) bitAt(u, v sgraph.NodeID) bool {
	return m.curPacked().bitAt(m.stride, u, v)
}

// computeRow lets ComputeStats stream matrix rows like any other
// relation's. Matrix rows are views into one state, so a streamed
// sweep is epoch-consistent even under concurrent mutation.
func (m *CompatMatrix) computeRow(u sgraph.NodeID) (row, error) {
	st, err := m.cur()
	if err != nil {
		return nil, err
	}
	return matrixRow{st: st, n: m.n, stride: m.stride, u: u}, nil
}

type matrixRow struct {
	st     *matrixState
	n      int
	stride int
	u      sgraph.NodeID
}

func (r matrixRow) compatible(v sgraph.NodeID) bool { return r.st.bitAt(r.stride, r.u, v) }
func (r matrixRow) distance(v sgraph.NodeID) (int32, bool) {
	return r.st.pairDistance(r.n, r.u, v)
}

// ---------------------------------------------------------------------------
// Construction.

// buildState fills a fresh matrixState for one graph snapshot. wide
// selects int32 distance storage; a uint8 build that meets a distance
// above maxDist8 is retried wide.
func (m *CompatMatrix) buildState(g *sgraph.Graph, epoch uint64, wide bool) (*matrixState, error) {
	st, err := m.buildStateOnce(g, epoch, wide)
	if !wide && errors.Is(err, errDistOverflow) {
		// A distance beyond uint8 packing exists (graph with relation
		// diameter > 254): rebuild with exact int32 storage.
		st, err = m.buildStateOnce(g, epoch, true)
	}
	return st, err
}

func (m *CompatMatrix) buildStateOnce(g *sgraph.Graph, epoch uint64, wide bool) (*matrixState, error) {
	n := m.n
	st := &matrixState{g: g, epoch: epoch, bits: make([]uint64, n*m.stride)}
	if n == 0 {
		return st, nil
	}
	if wide {
		st.dist32 = make([]int32, n*n)
		for i := range st.dist32 {
			st.dist32[i] = noDist32
		}
	} else {
		st.dist8 = make([]uint8, n*n)
		for i := range st.dist8 {
			st.dist8[i] = noDist8
		}
	}

	sink := slabSink(st.bits, st.dist8, st.dist32, m.stride, n, 0)
	fill, height := relationFiller(g, m.kind, m.beam, m.exact, sink)
	scratches, workers := newWorkerScratches(m.workers, n)
	if err := fillRows(0, n, height, workers, scratches, fill); err != nil {
		return nil, err
	}
	if m.kind == SBPH {
		if err := m.symmetrise(st, workers, wide); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// symmetrise rewrites the lower triangle from the upper one, turning
// the directed SBPH rows into the canonicalised relation the lazy
// engine exposes: entry (u,v) becomes row min(u,v)'s view of
// max(u,v). The bit rows are read from an immutable snapshot because
// one word mixes lower- and upper-triangle bits, so concurrent row
// rewrites would race; the distance matrices need no copy — writes
// touch only lower-triangle elements and reads only upper-triangle
// ones, which are disjoint.
func (m *CompatMatrix) symmetrise(st *matrixState, workers int, wide bool) error {
	n := m.n
	rawBits := append([]uint64(nil), st.bits...)
	rawBitAt := func(u, v int) bool {
		return rawBits[u*m.stride+v>>6]&(1<<uint(v&63)) != 0
	}
	return parallelSweep(n, workers, func(_, i int) error {
		u := i
		row := st.rowWords(m.stride, sgraph.NodeID(u))
		for v := 0; v < u; v++ {
			if rawBitAt(v, u) {
				setWordBit(row, sgraph.NodeID(v))
			} else {
				clearWordBit(row, sgraph.NodeID(v))
			}
			if wide {
				st.dist32[u*n+v] = st.dist32[v*n+u]
			} else {
				st.dist8[u*n+v] = st.dist8[v*n+u]
			}
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Word-slice bit helpers (rows are raw []uint64, not container.Bitset,
// to keep the n-row matrix a single allocation).

func setWordBit(words []uint64, i sgraph.NodeID)   { words[int(i)>>6] |= 1 << uint(int(i)&63) }
func clearWordBit(words []uint64, i sgraph.NodeID) { words[int(i)>>6] &^= 1 << uint(int(i)&63) }

func zeroWords(words []uint64) {
	for i := range words {
		words[i] = 0
	}
}

// fillWords sets bits [0, n) and keeps the tail zero.
func fillWords(words []uint64, n int) {
	for i := range words {
		words[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		words[len(words)-1] = (1 << uint(tail)) - 1
	}
}

// PackedRelation is the optional capability a fully materialised
// relation backend offers on top of Relation: word-packed
// compatibility rows and error-free distance lookups. Consumers (the
// team package's pickers and cost functions) detect it with a type
// assertion and switch to bitset AND/popcount fast paths, so any
// future packed backend (e.g. a sharded or spilling matrix) inherits
// them by implementing this interface. A PackedRelation is precomputed
// by construction; Precompute on one is a no-op.
//
// DistanceRow resolves one source's whole distance row (shard-aware on
// sharded backends: one shard touch per row, not per pair), so loops
// that price one node against many resolve the row once and index it
// through DistRow.At instead of paying a PairDistance lookup per pair.
// DistanceRowInto widens the row into a caller-reused []int32 with
// NoDistance for undefined pairs, for consumers that want a uniform
// representation independent of the engine's packing.
type PackedRelation interface {
	Relation
	NumNodes() int
	WordsPerRow() int
	RowWords(u sgraph.NodeID) []uint64
	PairDistance(u, v sgraph.NodeID) (int32, bool)
	DistanceRow(u sgraph.NodeID) DistRow
	DistanceRowInto(u sgraph.NodeID, dst []int32) []int32
}

// Compile-time interface checks.
var (
	_ Relation        = (*CompatMatrix)(nil)
	_ PackedRelation  = (*CompatMatrix)(nil)
	_ MutableRelation = (*CompatMatrix)(nil)
)
