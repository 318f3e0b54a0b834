// Package signedbfs implements Algorithm 1 of "Forming Compatible
// Teams in Signed Networks" (EDBT 2020): a single-source BFS over a
// signed graph that counts, for every reachable node, the number of
// positive and of negative shortest paths from the source.
//
// The sign of a path is the product of its edge signs. Walking a
// positive edge preserves every path's sign; walking a negative edge
// flips it. The BFS therefore propagates the counter pair (N+, N−)
// along shortest-path DAG edges, swapping the pair on negative edges.
//
// Shortest-path counts grow exponentially in the worst case, so the
// production counters are saturating uint64s: an overflowing addition
// sticks to MaxUint64 and the result records that saturation happened.
// Zero/non-zero tests (all the SPA/SPO compatibility logic needs) are
// always exact; the SPM majority comparison can be inexact only when
// both counters of the same node saturate, which Result.Saturated
// exposes. The package tests cross-check the saturating counters
// against CountPathsBig, an exact math/big variant kept in the tests.
//
// # Many sources at once
//
// SPA and SPO ask only whether some positive (negative) shortest path
// exists, and that yes/no answer spreads one BFS level at a time as a
// bitwise OR. MultiSweep exploits this: up to 64 sources share one
// traversal as the bits of a machine word, with a positive and a
// negative frontier word per node, swapped across negative edges. It
// reports, level by level, the nodes each source first reaches and
// the sign bits of its shortest paths there — the same Dist, Pos>0
// and Neg>0 CountPathsInto computes, one traversal per 64 sources.
// The sweep is frontier-driven, so it never scans more edges than its
// sources would one by one. For SPM's majority test it also counts:
// started with StartCounting, it keeps a (Pos, Neg) pair per node and
// source, packed as the two 32-bit halves of one word, and its
// frontier push (a second copy of the loop, so the bits-only sweep
// carries no counting code) sets or adds the pairs along each
// source's shortest-path-DAG edges as it crosses them. Every pair
// equals CountPathsInto's exactly unless some count reaches 2^31,
// which the sweep reports (Overflowed) so the caller can recount with
// CountPathsInto. The sweep works on any node numbering; the compat
// package's packed builds run one sweep per block of 64 rows for every
// kind but SBP/SBPH, on a copy of the graph relabelled so that nearby
// nodes get nearby ids (sgraph.Graph.Relabel). CountPathsInto stays
// the lazy engine's single-row path and the reference the agreement
// suites compare against.
//
// # Allocation discipline
//
// Distances allocates per call; the *Into variants write into
// caller-owned result storage and take a Scratch for all
// transient traversal state (queue, epoch-stamped discovery marks),
// so a warm (result, Scratch) pair performs no heap allocations; a
// warm MultiSweep likewise, counting or not (its counters, one word
// per node and source, are sized by the first counting sweep of that
// many sources). The all-pairs sweeps in the compat package —
// Precompute, ComputeStats and the per-shard builds of ShardedMatrix —
// rely on this: each worker owns one Scratch (and one MultiSweep) and
// reuses it across all sources it is handed, whether those sources
// span the whole graph or one row shard at a time. CI's alloc-regression smoke test keeps both warm
// paths at 0 allocs/op.
package signedbfs
