package signedbfs

import (
	"math/big"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// BigResult is the exact-arithmetic counterpart of Result.
type BigResult struct {
	Source   sgraph.NodeID
	Dist     []int32
	Pos, Neg []*big.Int
}

// CountPathsBig runs Algorithm 1 with exact big.Int counters. It is
// an order of magnitude slower than CountPaths and exists to validate
// the saturating implementation.
func CountPathsBig(g *sgraph.Graph, src sgraph.NodeID) *BigResult {
	n := g.NumNodes()
	res := &BigResult{
		Source: src,
		Dist:   make([]int32, n),
		Pos:    make([]*big.Int, n),
		Neg:    make([]*big.Int, n),
	}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
		res.Pos[i] = new(big.Int)
		res.Neg[i] = new(big.Int)
	}
	res.Dist[src] = 0
	res.Pos[src].SetInt64(1)

	q := container.NewIntQueue(n)
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := res.Dist[u]
		ids := g.NeighborIDs(u)
		signs := g.NeighborSigns(u)
		for i, v := range ids {
			if res.Dist[v] == Unreachable {
				res.Dist[v] = du + 1
				q.Push(v)
			}
			if res.Dist[v] == du+1 {
				if signs[i] == sgraph.Positive {
					res.Pos[v].Add(res.Pos[v], res.Pos[u])
					res.Neg[v].Add(res.Neg[v], res.Neg[u])
				} else {
					res.Neg[v].Add(res.Neg[v], res.Pos[u])
					res.Pos[v].Add(res.Pos[v], res.Neg[u])
				}
			}
		}
	}
	return res
}
