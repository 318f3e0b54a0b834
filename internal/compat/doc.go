// Package compat implements the user-compatibility relations of
// "Forming Compatible Teams in Signed Networks" (EDBT 2020), the core
// of the paper: given a signed graph, when can two users work
// together?
//
// # Relations
//
// Seven relations are provided, ordered from strictest to most
// relaxed (Proposition 3.5 of the paper):
//
//	DPE  — direct positive edge
//	SPA  — all shortest paths positive
//	SPM  — at least as many positive as negative shortest paths
//	SPO  — at least one positive shortest path
//	SBPH — heuristic structurally-balanced-path compatibility
//	SBP  — exact structurally-balanced-path compatibility
//	NNE  — no direct negative edge
//
// with Comp_DPE ⊆ Comp_SPA ⊆ Comp_SPM ⊆ Comp_SPO ⊆ Comp_SBP ⊆
// Comp_NNE and Comp_SBPH ⊆ Comp_SBP. All relations are reflexive and
// symmetric, satisfy positive-edge compatibility (a +1 edge implies
// compatible) and negative-edge incompatibility (a −1 edge implies
// incompatible).
//
// Every relation also defines the pairwise distance the team
// formation cost uses: the SP family and DPE use shortest-path
// length; SBP/SBPH use the length of the shortest structurally
// balanced positive path (the heuristic's, for SBPH); NNE uses
// shortest-path length ignoring signs.
//
// # Engines
//
// Two engines implement the Relation interface and agree answer for
// answer; they differ in how rows are computed and stored:
//
//   - The lazy engine (relations.go, New; one lazyRelation type for
//     every kind) answers point queries from per-source rows computed
//     on first use and held in a bounded cache, so it is cheap inside
//     the greedy team formation loop and scales to large graphs. A
//     row has the packed engine's format: compatibility words plus
//     the kind's reference search's own int32 distances (−1 where
//     undefined), about n/8 + 4n bytes. The bulk statistics in
//     stats.go read a row from the cache when it is there and
//     otherwise compute it into a per-worker scratch without caching
//     it.
//   - The packed engine (sharded*.go, fill.go, spill.go, NewSharded)
//     precomputes the whole relation into packed bitset rows plus
//     packed distance rows, so all-pairs and batch-query workloads run
//     on word-level operations, at Θ(n²) memory (n²/8 + n² bytes).
//     The rows are partitioned into row shards; with every shard
//     resident — in particular the "matrix" configuration, one shard
//     of NumNodes rows — reads take no lock, loading the published
//     shard table through an atomic pointer. A MaxResidentShards bound
//     makes cold shards spill to a compact temporary file and come
//     back on demand, so packed-row speed survives graphs whose full
//     matrix does not fit. Where the platform supports it the spill
//     file is memory-mapped and a reload is a zero-copy view into the
//     mapping (spill_mmap.go; ShardedOptions.DisableMmap forces the
//     portable ReadAt fallback); see ShardedMatrix.
//     ShardedMatrix.Save writes the engine to one file in the spill
//     slot layout behind a header, and OpenSharded maps it back as a
//     fully resident engine of zero-copy views (persist.go).
//
// # Packed construction
//
// The packed engine fills every shard one way: construction, the lazy
// rebuild of a shard a mutation staled, and the wide promotion after
// a distance outgrows uint8 packing all claim the shard's residency
// slot, fill a fresh slab and swap it in (sharded_build.go). The fill
// (fill.go) hands out blocks of rows, never straddling a shard, to a
// worker pool, which writes each block into the slab's rows; SBPH
// then symmetrises the slab against the earlier shards in shard-pair
// tiles. SPA, SPO, SPM, DPE and NNE fill up to 64 rows from a single
// signedbfs.MultiSweep. The engine fixes one locality order at
// construction (a BFS from the highest-degree unplaced node,
// component by component) and sweeps the graph snapshot relabelled
// into it, derived once per snapshot; a shard's sources go in that
// order, 64 to a block, so a block's sources share their frontiers
// and the sweep walks memory front to back. Rows and columns map back
// to the original ids, so the stored rows are the same bits. The sweep's per-source positive/negative
// bits are exactly Algorithm 1's Pos>0 / Neg>0 and its levels give
// every distance (DPE and NNE keep their neighbour-list bits and take
// only the distances). The sweep fills per-node column buffers, and
// 64×64 bit and 8×8 byte transposes then write the block's rows
// whole, the sentinel of every unreached distance included (a block
// of fewer than eight sources gathers its rows lane by lane). Every
// fill writes every cell of its rows (the wide packing and SBP/SBPH
// write the sentinel themselves), so no slab is prefilled. SPM runs
// the sweep in counting mode, which counts the paths during the
// frontier push: a source whose shortest paths to a node are all of
// one sign needs only the bits, and where both signs arrive its
// per-source (Pos, Neg) counters — 32-bit halves of one word, equal
// to CountPathsInto's while no count reaches 2^31 — settle Pos ≥ Neg.
// A block whose sweep reports an overflow re-decides those entries
// with one CountPathsInto per row on the original graph, as DPE and
// NNE take their neighbour bits. SBP and SBPH keep one balance search
// per row. The lazy engine's on-demand rows stay on
// CountPathsInto/DistancesInto, the reference the engine-agreement
// suites hold the packed builds to.
//
// The packed engine exposes its rows, which the team solver binds to
// (it holds the *ShardedMatrix itself) for word-parallel AND/popcount
// fast paths: the bit rows (RowWords), the bulk AndCountRows and
// AndCountRowsEach of its degree passes, and DistanceRow: one
// source's whole packed distance row as an immutable DistRow view, resolved with a single shard touch — the
// accessor the team solver's MinDistance picker and running cost scan
// instead of paying a per-pair lookup (and, on a spilling engine, a
// lock) for every (candidate, member) pair. The PackedRelation
// interface names these row accessors.
//
// # Mutations
//
// The Relation contract includes live edge mutations (add / remove /
// flip, sgraph.Mutation) against a serving engine. Mutate derives a
// fresh immutable graph through an epoch-versioned sgraph.Dynamic and
// invalidates the derived state: the lazy engine drops its row cache,
// and the packed engine follows one rule, kept in sharded_mutate.go —
// every mutation marks every shard *stale* and drops it from the
// lock-free table. The relations are path relations over the whole
// graph, so on a connected graph every row's search reaches both
// endpoints of any edge and no shard's rows are safe. A stale shard
// rebuilds on first access, each read rebuilding only the shard it
// reads (flip+re-query is ~77× cheaper than a full rebuild at bench
// scale, BenchmarkMutateThenQuery). Concurrent
// readers are protected by AcquireSnapshot: a Snapshot pins the
// current epoch for a batch of queries (mutations wait), and the
// zero-value Snapshot makes the same code a no-op where no pin is
// wanted.
// MutationStats exposes the epoch and the stale/rebuild counters.
// Correctness is pinned by a mutation-oracle property suite (every
// engine vs a fresh build after random mutation programs), repeated
// race runs of mutator-vs-reader traffic, and native fuzz targets.
//
// # SBPH symmetry and statistics
//
// The SBPH heuristic is directional: its search from u may reach v
// while the search from v misses u. The Relation interface restores
// the symmetry the Comp relation requires by canonicalising queries
// (entry (u,v) is the search from min(u,v) to max(u,v)), and the
// packed engine materialises exactly that symmetrised relation.
// ComputeStats measures the same symmetrised relation on every
// engine — on a full scan the lazy engine reads its directed SBPH rows
// (cached or computed, the same rows) over their canonical upper
// triangle, so full-scan SBPH statistics agree across engines bit for
// bit. Sampled scans stream the whole
// directed row as a proxy (the canonical entry of a (v<u, u) pair
// lives in a row the sample may not include), so sampled SBPH
// estimates can differ from a packed engine's in the second decimal.
// See Stats.
//
// # Kernels
//
// The word-level inner loops every engine and the team solver lean on
// — row AND/popcount, the fused candidate argmin, SWAR uint8 row
// scans — live in internal/kernels, with portable and GOAMD64=v3
// variants selected at compile time. KernelsVariant (surfaced through
// Stats.Kernels) names the compiled-in one.
package compat
