// The relation-engine flag group. Engine bundles the -engine knob and
// its sharded-only satellites into one registerable, validatable,
// buildable unit, so cmd/tfsn, cmd/tfsnd and cmd/experiments select
// relation backends through identical flags, identical rejection rules
// and an identical construction path (including the
// exact-SBP-stays-lazy override).

package cliflags

import (
	"flag"
	"fmt"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// Engine is the relation-engine flag group shared by the binaries and
// the experiment harness: which backend to build and the sharded
// engine's knobs. Register it on a FlagSet, Validate it after parsing,
// then Build the relation.
type Engine struct {
	// Name is the backend: "lazy" (cached rows, on demand), "matrix"
	// (packed all-pairs precompute, one resident shard) or "sharded"
	// (packed rows in spillable shards).
	Name string
	// ShardRows, MaxResidentShards and MmapSpill mirror
	// compat.ShardedOptions; they mean nothing unless Name is
	// "sharded" (Validate rejects them otherwise).
	ShardRows         int
	MaxResidentShards int
	MmapSpill         bool
}

// Register defines the engine flags on fs; defaults match the
// historical tfsn flags.
func (e *Engine) Register(fs *flag.FlagSet) {
	fs.StringVar(&e.Name, "engine", "lazy", "relation engine: lazy (cached rows, on demand), matrix (packed all-pairs precompute) or sharded (packed rows in spillable shards)")
	fs.IntVar(&e.ShardRows, "shard-rows", 0, "sharded engine: rows per shard (0 = default)")
	fs.IntVar(&e.MaxResidentShards, "max-resident-shards", 0, "sharded engine: shards kept in memory, rest spilled to disk (0 = all resident)")
	fs.BoolVar(&e.MmapSpill, "mmap-spill", true, "sharded engine: serve spill reloads from a read-only mmap of the spill file (false = portable read-back)")
}

// Validate rejects inconsistent engine flags: an unknown engine name,
// or sharded-only flags under another engine. set holds the names of
// flags explicitly present on the command line (collect with
// FlagSet.Visit).
func (e *Engine) Validate(set map[string]bool) error {
	switch e.Name {
	case "sharded":
		return nil
	case "", "lazy", "matrix":
	default:
		return fmt.Errorf("unknown engine %q (want lazy, matrix or sharded)", e.Name)
	}
	for _, name := range []string{"shard-rows", "max-resident-shards", "mmap-spill"} {
		if set[name] {
			return fmt.Errorf("-%s only applies to -engine=sharded (got -engine=%s)", name, e.Name)
		}
	}
	return nil
}

// RelationOptions fills opts' zero relation parameters for g, the one
// place they are chosen: a row cache covering the node set, and for
// exact SBP a path cap of g's diameter + 2, fixed at build. The
// enumeration is exponential in the cap, and SPO ⊆ SBP ⊇ SBPH
// (Proposition 3.5) needs paths only a little past the diameter.
func RelationOptions(kind compat.Kind, g *sgraph.Graph, opts compat.Options) compat.Options {
	if opts.CacheCap == 0 {
		opts.CacheCap = g.NumNodes() + 1
	}
	if kind == compat.SBP && opts.Exact.MaxLen == 0 {
		opts.Exact.MaxLen = int(signedbfs.Diameter(g)) + 2
	}
	return opts
}

// Build constructs the selected engine over g with RelationOptions'
// parameters. Exact SBP stays on the lazy engine regardless of the
// selection: its per-source enumeration is budgeted and exponential,
// so an all-pairs packed build would abort where lazy point queries
// succeed. "matrix" is the packed
// engine as a single resident shard. The returned name is the engine
// actually built ("lazy" under that override), for reporting.
func (e *Engine) Build(kind compat.Kind, g *sgraph.Graph, opts compat.Options) (compat.Relation, string, error) {
	opts = RelationOptions(kind, g, opts)
	switch e.Name {
	case "", "lazy":
		rel, err := compat.New(kind, g, opts)
		return rel, "lazy", err
	case "matrix", "sharded":
		if kind == compat.SBP {
			rel, err := compat.New(kind, g, opts)
			return rel, "lazy", err
		}
		sopts := compat.ShardedOptions{Options: opts, ShardRows: g.NumNodes()}
		if e.Name == "sharded" {
			sopts = compat.ShardedOptions{
				Options:           opts,
				ShardRows:         e.ShardRows,
				MaxResidentShards: e.MaxResidentShards,
				DisableMmap:       !e.MmapSpill,
			}
		}
		m, err := compat.NewSharded(kind, g, sopts)
		if err != nil {
			return nil, "", err
		}
		return m, e.Name, nil
	default:
		return nil, "", fmt.Errorf("unknown engine %q (want lazy, matrix or sharded)", e.Name)
	}
}
