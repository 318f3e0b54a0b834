package sgraph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	input := `# a comment
10 20 1
20	30	-1
30 10 1
`
	g, orig, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || g.NumNegativeEdges() != 1 {
		t.Fatalf("got %v", g)
	}
	if len(orig) != 3 || orig[0] != 10 || orig[1] != 20 || orig[2] != 30 {
		t.Fatalf("orig ids = %v", orig)
	}
	s, ok := g.EdgeSign(1, 2) // 20-30 is negative
	if !ok || s != Negative {
		t.Fatalf("edge 20-30 = %v,%v", s, ok)
	}
}

// TestReadEdgeListNumbersByAscendingID: nodes are numbered in ascending
// id order, not in order of first appearance.
func TestReadEdgeListNumbersByAscendingID(t *testing.T) {
	g, orig, err := ReadEdgeList(strings.NewReader("30 -4 1\n7 30 -1\n"))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if want := []int64{-4, 7, 30}; !slices.Equal(orig, want) {
		t.Fatalf("orig ids = %v, want %v", orig, want)
	}
	if s, ok := g.EdgeSign(2, 0); !ok || s != Positive {
		t.Fatalf("edge 30-(-4) = %v,%v, want positive", s, ok)
	}
	if s, ok := g.EdgeSign(1, 2); !ok || s != Negative {
		t.Fatalf("edge 7-30 = %v,%v, want negative", s, ok)
	}
}

func TestReadEdgeListToleratesSymmetricDuplicates(t *testing.T) {
	input := "0 1 1\n1 0 1\n"
	g, _, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
}

func TestReadEdgeListDropsSelfLoops(t *testing.T) {
	input := "0 0 1\n0 1 -1\n"
	g, _, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumEdges() != 1 || g.NumNegativeEdges() != 1 {
		t.Fatalf("got %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for name, input := range map[string]string{
		"fields":    "0 1\n",
		"badsource": "x 1 1\n",
		"badtarget": "0 x 1\n",
		"badsign":   "0 1 2\n",
		"conflict":  "0 1 1\n1 0 -1\n",
	} {
		if _, _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadEdgeList accepted %q", name, input)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(30)
	for i := 0; i < 60; i++ {
		u, v := NodeID(rng.Intn(30)), NodeID(rng.Intn(30))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		s := Positive
		if rng.Intn(4) == 0 {
			s = Negative
		}
		b.AddEdge(u, v, s)
	}
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, orig, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumNegativeEdges() != g.NumNegativeEdges() {
		t.Fatalf("round trip changed edge counts: %v vs %v", g2, g)
	}
	// Isolated nodes are not representable in an edge list, so compare
	// via original ids edge by edge.
	toOrig := func(u NodeID) int64 { return orig[u] }
	for _, e := range g2.Edges() {
		s, ok := g.EdgeSign(NodeID(toOrig(e.U)), NodeID(toOrig(e.V)))
		if !ok || s != e.Sign {
			t.Fatalf("edge %+v not in original graph (sign %v ok %v)", e, s, ok)
		}
	}
}

func TestWriteEdgeListOrigIDMismatch(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, []int64{1, 2}); err == nil {
		t.Fatal("WriteEdgeList accepted short origIDs")
	}
}

func TestWriteEdgeListWithOrigIDs(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 1, Negative}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, []int64{100, 200}); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	if !strings.Contains(buf.String(), "100\t200\t-1") {
		t.Fatalf("output missing translated edge:\n%s", buf.String())
	}
}
