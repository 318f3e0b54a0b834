// Package experiments regenerates every table and figure of the
// paper's evaluation section (Section 5) on the synthetic dataset
// stand-ins:
//
//	Table 1      — dataset statistics
//	Table 2      — compatibility relation comparison (incl. SBP vs SBPH)
//	Table 3      — unsigned team formation vs signed compatibility
//	Figure 2(a)  — solution rate per algorithm (LCMD, LCMC, RANDOM, MAX)
//	Figure 2(b)  — team diameter per algorithm
//	Figure 2(c)  — solution rate vs task size (LCMD)
//	Figure 2(d)  — team diameter vs task size (LCMD)
//	PolicyGrid   — the paper's 2×2 skill/user policy ablation
//
// Each experiment returns typed rows; render.go turns them into
// aligned text tables. Everything is deterministic in Config.Seed.
//
// # Relation engines
//
// Config.Engine is the binaries' engine flag group
// (cliflags.Engine), and every experiment builds its relations through
// its Build, the one engine switch: "lazy" (default), "matrix" (full
// packed precompute) or "sharded" (packed row shards with bounded
// residency and disk spill, tuned by the group's ShardRows,
// MaxResidentShards and MmapSpill). It fills the relation parameters
// as for every binary (cliflags.RelationOptions; exact SBP's paths end
// at diameter + 2). Exact SBP always stays on the lazy engine,
// because its budgeted exponential enumeration would abort an
// all-pairs build that source sampling completes. A packed build
// follows GOMAXPROCS, not Config.Workers.
//
// Engine choice is measurement-relevant for one cell family: SBPH
// statistics from ComputeStats agree across engines exactly on full
// scans (the lazy engine canonicalises its directed rows), but under
// source sampling (-sample) the lazy engine streams directed rows as
// a proxy for the symmetrised relation, so sampled SBPH cells can
// differ from a packed engine's in the second decimal — see
// compat.Stats. Table 2 rows therefore carry the engine name and the
// renderers print it, so recorded results stay attributable to their
// backend.
package experiments
