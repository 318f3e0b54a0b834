// Relation kinds, the Relation interface and the lazy-engine
// constructor. Package documentation lives in doc.go.

package compat

import (
	"fmt"
	"strings"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// Kind enumerates the compatibility relations.
type Kind int

// The relations, in the containment order of Proposition 3.5
// (SBPH slots in as a subset of SBP).
const (
	DPE Kind = iota
	SPA
	SPM
	SPO
	SBPH
	SBP
	NNE
	numKinds
)

// Kinds lists all relation kinds in containment order.
func Kinds() []Kind { return []Kind{DPE, SPA, SPM, SPO, SBPH, SBP, NNE} }

// String returns the paper's name for the relation.
func (k Kind) String() string {
	switch k {
	case DPE:
		return "DPE"
	case SPA:
		return "SPA"
	case SPM:
		return "SPM"
	case SPO:
		return "SPO"
	case SBPH:
		return "SBPH"
	case SBP:
		return "SBP"
	case NNE:
		return "NNE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a (case-insensitive) relation name.
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "DPE":
		return DPE, nil
	case "SPA":
		return SPA, nil
	case "SPM":
		return SPM, nil
	case "SPO":
		return SPO, nil
	case "SBPH":
		return SBPH, nil
	case "SBP":
		return SBP, nil
	case "NNE":
		return NNE, nil
	default:
		return 0, fmt.Errorf("compat: unknown relation %q (want DPE, SPA, SPM, SPO, SBPH, SBP or NNE)", name)
	}
}

// Relation is the engine contract: compatibility and distance queries
// on a signed graph that accepts edge mutations. Both engines (New and
// NewSharded) implement all of it, and are safe for concurrent use.
//
// Compatible is reflexive and symmetric. Distance returns the
// relation's distance and ok=false when the relation defines no
// distance for the pair (e.g. no positive balanced path under SBP).
// The error return carries resource-exhaustion failures (only the
// exact SBP relation, whose path enumeration is budgeted, produces
// them).
//
// Mutate applies one edge change and returns the new epoch; on error
// (unknown edge, duplicate add, bad endpoints) nothing changes and the
// epoch does not move. Epoch is the current graph epoch (0 = as
// built). Invalidated engine state rebuilds lazily on the next read
// that touches it, via the same fill paths used at construction.
//
// AcquireSnapshot pins the current epoch: mutations block until the
// snapshot is released. Snapshots are shared (many readers may hold
// one concurrently) and must be released exactly once. Acquire and
// Release allocate nothing, so per-request pinning keeps warm serving
// paths at 0 allocs/op.
//
// Close releases engine-held resources (the packed engine's spill
// file; a no-op on the lazy engine). It is idempotent.
type Relation interface {
	Kind() Kind
	Graph() *sgraph.Graph
	Compatible(u, v sgraph.NodeID) (bool, error)
	Distance(u, v sgraph.NodeID) (int32, bool, error)
	Epoch() uint64
	Mutate(m sgraph.Mutation) (MutationResult, error)
	MutationStats() MutationStats
	AcquireSnapshot() Snapshot
	Close() error
}

// Options tunes relation construction.
type Options struct {
	// BeamWidth is the SBPH beam (paths kept per node/sign state);
	// ≤0 selects balance.DefaultBeamWidth.
	BeamWidth int
	// Exact bounds the exact SBP enumeration.
	Exact balance.ExactOptions
	// CacheCap bounds the per-relation row cache (rows, not bytes);
	// ≤0 selects DefaultCacheCap.
	CacheCap int
}

// DefaultCacheCap is the default number of per-source rows a relation
// caches.
const DefaultCacheCap = 256

// New constructs the relation of the given kind over g.
func New(k Kind, g *sgraph.Graph, opts Options) (Relation, error) {
	if k < 0 || k >= numKinds {
		return nil, fmt.Errorf("compat: unknown relation kind %d", int(k))
	}
	cap := opts.CacheCap
	if cap <= 0 {
		cap = DefaultCacheCap
	}
	beam := opts.BeamWidth
	if beam <= 0 {
		beam = balance.DefaultBeamWidth
	}
	r := &lazyRelation{dyn: sgraph.NewDynamic(g), kind: k, beam: beam, exact: opts.Exact,
		rows: make(map[sgraph.NodeID]*lazyRow, cap), cap: cap}
	r.scratch.New = func() any { return newRowScratch(r.dyn.Graph().NumNodes()) }
	return r, nil
}

// PackedRelation is the row-level view of the packed engine
// (ShardedMatrix): word-packed compatibility rows and whole distance
// rows, both error-free. The team solver binds to *ShardedMatrix
// itself; this interface serves callers that only need the row
// accessors.
//
// DistanceRow resolves one source's whole distance row (one shard
// touch per row, not per pair), so loops that price one node against
// many resolve the row once and index it through DistRow.At instead of
// paying a Distance lookup per pair.
type PackedRelation interface {
	NumNodes() int
	RowWords(u sgraph.NodeID) []uint64
	DistanceRow(u sgraph.NodeID) DistRow
}
