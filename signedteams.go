// The root package API: graph construction, compatibility relations
// (both engines) and team formation. Package documentation lives
// in doc.go.

package signedteams

import (
	"io"

	"repro/internal/compat"
	"repro/internal/sgraph"
)

// Core signed-graph types. These are aliases of the implementation
// types, so values flow freely between the public API and the
// internal algorithm packages.
type (
	// Graph is an immutable undirected signed graph in CSR form.
	Graph = sgraph.Graph
	// Builder accumulates signed edges and produces a Graph.
	Builder = sgraph.Builder
	// NodeID identifies a node: dense integers in [0, NumNodes).
	NodeID = sgraph.NodeID
	// Sign is an edge label: Positive or Negative.
	Sign = sgraph.Sign
	// Edge is an undirected signed edge.
	Edge = sgraph.Edge
)

// Edge sign values.
const (
	Positive = sgraph.Positive
	Negative = sgraph.Negative
)

// NewBuilder returns a builder for a signed graph with n nodes.
func NewBuilder(n int) *Builder { return sgraph.NewBuilder(n) }

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return sgraph.FromEdges(n, edges) }

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges []Edge) *Graph { return sgraph.MustFromEdges(n, edges) }

// ReadEdgeList parses a SNAP-style signed edge list ("u v ±1" rows).
// It returns the graph and the original node ids, remapped to [0, n)
// in ascending order.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) { return sgraph.ReadEdgeList(r) }

// WriteEdgeList writes g in the format ReadEdgeList parses.
func WriteEdgeList(w io.Writer, g *Graph, origIDs []int64) error {
	return sgraph.WriteEdgeList(w, g, origIDs)
}

// Compatibility relations.
type (
	// Relation answers Compatible(u,v) and Distance(u,v) queries on a
	// signed graph that accepts edge mutations (Mutate, pinned by
	// AcquireSnapshot); Close releases engine resources.
	// Implementations are concurrency-safe.
	Relation = compat.Relation
	// RelationKind enumerates the seven compatibility relations.
	RelationKind = compat.Kind
	// RelationOptions tunes relation construction (SBPH beam width,
	// exact-SBP budgets, row-cache capacity). A zero Exact.MaxLen
	// leaves exact SBP uncapped here; the binaries instead cap it at
	// the graph's diameter + 2, fixed when the relation is built.
	RelationOptions = compat.Options
	// RelationStats aggregates compatible-pair fractions and average
	// distances, as in the paper's Table 2.
	RelationStats = compat.Stats
	// StatsOptions controls ComputeRelationStats.
	StatsOptions = compat.StatsOptions
	// SkillMatrix records which skill pairs have compatible holders.
	SkillMatrix = compat.SkillMatrix
)

// The compatibility relations, strictest to most relaxed
// (Proposition 3.5 of the paper): direct positive edge; all shortest
// paths positive; majority of shortest paths positive; one shortest
// path positive; heuristic structurally-balanced-path; exact
// structurally-balanced-path; no negative edge.
const (
	DPE  = compat.DPE
	SPA  = compat.SPA
	SPM  = compat.SPM
	SPO  = compat.SPO
	SBPH = compat.SBPH
	SBP  = compat.SBP
	NNE  = compat.NNE
)

// RelationKinds lists all relations in containment order.
func RelationKinds() []RelationKind { return compat.Kinds() }

// ParseRelationKind resolves a case-insensitive relation name
// ("SPA", "nne", ...).
func ParseRelationKind(name string) (RelationKind, error) { return compat.ParseKind(name) }

// NewRelation constructs the relation of the given kind over g.
func NewRelation(kind RelationKind, g *Graph, opts RelationOptions) (Relation, error) {
	return compat.New(kind, g, opts)
}

// ShardedRelationOptions tunes NewShardedRelation: the relation
// parameters plus build parallelism, shard height (ShardRows; at
// least the node count gives the single-shard matrix configuration),
// the resident-shard bound (MaxResidentShards) that triggers disk
// spill, and the spill read backend (DisableMmap forces the portable
// ReadAt path instead of the memory-mapped spill file).
type ShardedRelationOptions = compat.ShardedOptions

// ShardedRelation is the packed engine returned by
// NewShardedRelation, exposed concretely so callers can reach its
// observability methods (NumShards, ResidentShards, SpillLoads) and
// Close.
type ShardedRelation = compat.ShardedMatrix

// NewShardedRelation precomputes the packed all-pairs engine: one bit
// per node pair plus a packed distance row per node, built in row
// shards by a worker pool. The result implements Relation and makes
// batch team formation and all-pairs statistics run on word-level
// operations. Memory is Θ(n²) bits + bytes while every shard is
// resident — with ShardRows ≥ g.NumNodes() it is one shard, the
// "matrix" configuration, whose reads take no lock. A
// MaxResidentShards bound keeps at most that many shards in memory
// behind an LRU and spills cold shards to a compact temporary file
// that point queries transparently read back — use it when the full
// matrix does not fit but packed-row speed is still wanted. Prefer the
// lazy NewRelation on very large graphs. Call Close on the result to
// release the spill file.
func NewShardedRelation(kind RelationKind, g *Graph, opts ShardedRelationOptions) (*ShardedRelation, error) {
	return compat.NewSharded(kind, g, opts)
}

// OpenShardedRelation opens a file written by ShardedRelation.Save over
// g, the graph it was saved over, without a rebuild: build an expensive
// relation (exact SBP above all) once, query it anywhere. Call Close on
// the result to release the file mapping.
func OpenShardedRelation(path string, g *Graph) (*ShardedRelation, error) {
	return compat.OpenSharded(path, g)
}

// ComputeRelationStats measures compatible-pair fractions, average
// distances and (optionally) the skill-pair compatibility matrix for
// one relation — the measurements behind the paper's Table 2.
func ComputeRelationStats(rel Relation, opts StatsOptions) (*RelationStats, error) {
	return compat.ComputeStats(rel, opts)
}

// PrecomputeRelation fills the relation's row cache for every node in
// parallel; create the relation with RelationOptions.CacheCap ≥
// NumNodes first. Useful before all-pairs or many-task workloads.
func PrecomputeRelation(rel Relation, workers int) error {
	return compat.Precompute(rel, workers)
}
