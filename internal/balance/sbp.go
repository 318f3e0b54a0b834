package balance

import (
	"errors"
	"fmt"

	"repro/internal/sgraph"
)

// PathDists records, for one source node, the length of the shortest
// structurally balanced positive and negative path to every node.
// NoPath marks the absence of such a path.
type PathDists struct {
	Source sgraph.NodeID
	// PosDist[v] is the length of the shortest balanced positive path
	// Source→v, or NoPath. PosDist[Source] = 0 (the empty path).
	PosDist []int32
	// NegDist[v] is the length of the shortest balanced negative path
	// Source→v, or NoPath.
	NegDist []int32
	// Expanded counts path extensions explored (work measure).
	Expanded int64
}

// NoPath is the distance reported when no balanced path of the
// requested sign exists.
const NoPath = int32(-1)

// ErrBudgetExceeded is returned by ExactSBP when the exploration
// budget runs out before the search space is exhausted. Results are
// then incomplete and must not be used; the paper hits the same wall,
// which is why it evaluates exact SBP only on the small Slashdot
// network.
var ErrBudgetExceeded = errors.New("balance: exact SBP exploration budget exceeded")

// ExactOptions bounds the exact SBP enumeration.
type ExactOptions struct {
	// MaxLen caps the path length (edges) explored; 0 means no cap
	// (paths remain simple, so n−1 is the implicit limit).
	MaxLen int
	// MaxExpanded caps the number of path extensions; 0 means the
	// DefaultMaxExpanded budget.
	MaxExpanded int64
}

// DefaultMaxExpanded is the default exploration budget of ExactSBP.
const DefaultMaxExpanded = int64(50_000_000)

// ExactSBP enumerates every simple structurally balanced path from
// src by depth-first search with incremental balance pruning (an
// unbalanced prefix can never become balanced again, because an
// unbalanced induced cycle persists under extension). It returns the
// per-node shortest balanced positive/negative path lengths.
//
// The search space is exponential; budgets make the failure mode an
// explicit error rather than an unbounded run.
func ExactSBP(g *sgraph.Graph, src sgraph.NodeID, opts ExactOptions) (*PathDists, error) {
	n := g.NumNodes()
	maxLen := opts.MaxLen
	if maxLen <= 0 || maxLen > n-1 {
		maxLen = n - 1
	}
	budget := opts.MaxExpanded
	if budget <= 0 {
		budget = DefaultMaxExpanded
	}

	res := &PathDists{
		Source:  src,
		PosDist: make([]int32, n),
		NegDist: make([]int32, n),
	}
	for i := range res.PosDist {
		res.PosDist[i] = NoPath
		res.NegDist[i] = NoPath
	}
	res.PosDist[src] = 0

	w := NewWalk(g, src)
	var dfs func() error
	dfs = func() error {
		head := w.Head()
		if w.Len() > 0 {
			if w.Sign() == sgraph.Positive {
				if res.PosDist[head] == NoPath || int32(w.Len()) < res.PosDist[head] {
					res.PosDist[head] = int32(w.Len())
				}
			} else {
				if res.NegDist[head] == NoPath || int32(w.Len()) < res.NegDist[head] {
					res.NegDist[head] = int32(w.Len())
				}
			}
		}
		if w.Len() >= maxLen {
			return nil
		}
		for _, v := range g.NeighborIDs(head) {
			if !w.Extend(v) {
				continue
			}
			res.Expanded++
			if res.Expanded > budget {
				return fmt.Errorf("%w (source %d, budget %d)", ErrBudgetExceeded, src, budget)
			}
			if err := dfs(); err != nil {
				return err
			}
			w.Retract()
		}
		return nil
	}
	if err := dfs(); err != nil {
		return nil, err
	}
	return res, nil
}
