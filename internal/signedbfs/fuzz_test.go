// Native fuzz target for the counting MultiSweep. CI runs it for a
// short -fuzztime as a smoke; its seed corpus runs in every ordinary
// `go test`.

package signedbfs

import (
	"testing"

	"repro/internal/sgraph"
)

// decodeSweepInput maps fuzz bytes onto a small signed graph and a
// block of 1–64 sources. An 8-byte header (zero-padded) holds: the
// source count, the number of base nodes (1–24), the length of a chain
// of two-branch diamonds (0–39) hung from one base node, that node, the
// stride and offset that spread the sources (repeats allowed) over
// every node, and a 16-bit mask signing the diamonds' top edges. Each
// further byte triple adds an edge (u, v, sign) over all nodes,
// skipping self-loops and repeats. A chain of 31 or more diamonds
// drives counts past the packed lanes' 2^31 limit.
func decodeSweepInput(data []byte) (*sgraph.Graph, []sgraph.NodeID) {
	var h [8]byte
	copy(h[:], data)
	base := 1 + int(h[1])%24
	diamonds := int(h[2]) % 40
	n := base + 3*diamonds
	b := sgraph.NewBuilder(n)
	in := sgraph.NodeID(int(h[3]) % base)
	mask := int(h[6]) | int(h[7])<<8
	for i := 0; i < diamonds; i++ {
		top := sgraph.NodeID(base + 3*i)
		bot, out := top+1, top+2
		s := sgraph.Positive
		if mask>>(i%16)&1 != 0 {
			s = sgraph.Negative
		}
		b.AddEdge(in, top, s)
		b.AddEdge(in, bot, sgraph.Positive)
		b.AddEdge(top, out, sgraph.Positive)
		b.AddEdge(bot, out, sgraph.Positive)
		in = out
	}
	if len(data) > 8 {
		edges := data[8:]
		for i := 0; i+3 <= len(edges) && i < 3*64; i += 3 {
			u, v := sgraph.NodeID(int(edges[i])%n), sgraph.NodeID(int(edges[i+1])%n)
			if u == v || b.HasEdge(u, v) {
				continue
			}
			s := sgraph.Positive
			if edges[i+2]&1 != 0 {
				s = sgraph.Negative
			}
			b.AddEdge(u, v, s)
		}
	}
	srcs := make([]sgraph.NodeID, 1+int(h[0])%MaxSources)
	for j := range srcs {
		srcs[j] = sgraph.NodeID((int(h[5]) + j*(1+int(h[4]))) % n)
	}
	return b.MustBuild(), srcs
}

// FuzzMultiSweepCounts checks one plain and one counting sweep of a
// decoded graph against CountPathsInto from every source: distances
// and sign bits in both modes, the overflow flag (set exactly when
// some true count reaches 2^31), and, when it is clear, every packed
// lane.
func FuzzMultiSweepCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{63, 11, 0, 0, 2, 5, 0, 0, 1, 2, 0, 2, 3, 1, 3, 4, 0, 4, 0, 1, 5, 1, 0})
	f.Add([]byte{0, 0, 30, 0, 0, 0, 0, 0})                // 2^30 paths: exact
	f.Add([]byte{0, 0, 31, 0, 0, 0, 0, 0})                // 2^31 paths: overflowed
	f.Add([]byte{7, 3, 33, 1, 9, 1, 0x55, 0x55, 2, 7, 1}) // mixed signs, shortcut edge
	f.Fuzz(func(t *testing.T, data []byte) {
		g, srcs := decodeSweepInput(data)
		sw := NewMultiSweep(g.NumNodes())
		dist, pos, neg, _ := sweepRows(t, g, sw, srcs, false)
		cDist, cPos, cNeg, cnt := sweepRows(t, g, sw, srcs, true)
		var res Result
		scratch := NewScratch(g.NumNodes())
		for j, u := range srcs {
			CountPathsInto(g, u, &res, scratch)
			for v := range dist[j] {
				if dist[j][v] != res.Dist[v] || cDist[j][v] != res.Dist[v] {
					t.Fatalf("src %d: dist to %d = %d (counting %d), CountPaths %d", u, v, dist[j][v], cDist[j][v], res.Dist[v])
				}
				p, q := res.Pos[v] > 0, res.Neg[v] > 0
				if pos[j][v] != p || neg[j][v] != q || cPos[j][v] != p || cNeg[j][v] != q {
					t.Fatalf("src %d: signs at %d = (+%v, -%v) (counting (+%v, -%v)), CountPaths (%d, %d)",
						u, v, pos[j][v], neg[j][v], cPos[j][v], cNeg[j][v], res.Pos[v], res.Neg[v])
				}
			}
		}
		checkCounts(t, "fuzz", g, srcs, cnt, sw.Overflowed(), &res, scratch)
	})
}
