package sgraph

import (
	"errors"
	"math/rand"
	"testing"
)

// rebuildFromEdges collects d's current edge set and rebuilds a graph
// through the Builder — the oracle for the copy-on-write splices.
func rebuildFromEdges(t *testing.T, g *Graph) *Graph {
	t.Helper()
	b := NewBuilder(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		g.Neighbors(NodeID(u), func(v NodeID, s Sign) bool {
			if v > NodeID(u) {
				b.AddEdge(NodeID(u), v, s)
			}
			return true
		})
	}
	got, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return got
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() ||
		a.NumNegativeEdges() != b.NumNegativeEdges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		for v := 0; v < a.NumNodes(); v++ {
			sa, oka := a.EdgeSign(NodeID(u), NodeID(v))
			sb, okb := b.EdgeSign(NodeID(u), NodeID(v))
			if oka != okb || sa != sb {
				return false
			}
		}
	}
	return true
}

func TestDynamicMutations(t *testing.T) {
	g := MustFromEdges(6, []Edge{
		{U: 0, V: 1, Sign: Positive},
		{U: 1, V: 2, Sign: Negative},
		{U: 2, V: 3, Sign: Positive},
		{U: 4, V: 5, Sign: Negative},
	})
	d := NewDynamic(g)
	if d.Epoch() != 0 {
		t.Fatalf("fresh Dynamic epoch = %d, want 0", d.Epoch())
	}

	_, e, err := d.Apply(Mutation{Op: MutAdd, U: 0, V: 3, Sign: Negative})
	if err != nil || e != 1 {
		t.Fatalf("add: epoch %d err %v", e, err)
	}
	if s, ok := d.Graph().EdgeSign(3, 0); !ok || s != Negative {
		t.Fatalf("added edge not visible: sign=%v ok=%v", s, ok)
	}

	_, e, err = d.Apply(Mutation{Op: MutFlip, U: 1, V: 2})
	if err != nil || e != 2 {
		t.Fatalf("flip: epoch %d err %v", e, err)
	}
	if s, _ := d.Graph().EdgeSign(1, 2); s != Positive {
		t.Fatalf("flip(1,2): sign=%v, want +", s)
	}
	if got := d.Graph().NumNegativeEdges(); got != 2 {
		t.Fatalf("negative count after flip = %d, want 2", got)
	}

	_, e, err = d.Apply(Mutation{Op: MutRemove, U: 4, V: 5})
	if err != nil || e != 3 {
		t.Fatalf("remove: epoch %d err %v", e, err)
	}
	if d.Graph().HasEdge(4, 5) {
		t.Fatal("removed edge still present")
	}
	if got := d.Graph().NumEdges(); got != 4 {
		t.Fatalf("edge count = %d, want 4", got)
	}

	// The original snapshot is untouched across all three mutations.
	if !g.HasEdge(4, 5) || g.HasEdge(0, 3) {
		t.Fatal("epoch-0 snapshot was mutated")
	}
	if s, _ := g.EdgeSign(1, 2); s != Negative {
		t.Fatal("epoch-0 snapshot sign changed")
	}
}

func TestDynamicMutationErrors(t *testing.T) {
	g := MustFromEdges(4, []Edge{{U: 0, V: 1, Sign: Positive}})
	d := NewDynamic(g)
	cases := []struct {
		name string
		m    Mutation
		want error
	}{
		{"add-existing", Mutation{Op: MutAdd, U: 1, V: 0, Sign: Negative}, ErrEdgeExists},
		{"remove-missing", Mutation{Op: MutRemove, U: 2, V: 3}, ErrNoSuchEdge},
		{"flip-missing", Mutation{Op: MutFlip, U: 0, V: 2}, ErrNoSuchEdge},
		{"self-loop", Mutation{Op: MutAdd, U: 1, V: 1, Sign: Positive}, nil},
		{"out-of-range", Mutation{Op: MutAdd, U: 0, V: 9, Sign: Positive}, nil},
		{"bad-sign", Mutation{Op: MutAdd, U: 0, V: 2, Sign: 0}, nil},
		{"bad-op", Mutation{U: 0, V: 2}, nil},
	}
	for _, tc := range cases {
		_, _, err := d.Apply(tc.m)
		if err == nil {
			t.Errorf("%s: Apply succeeded, want error", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if d.Epoch() != 0 {
		t.Fatalf("failed mutations moved the epoch to %d", d.Epoch())
	}
}

// TestDynamicRandomAgainstBuilder drives a random mutation sequence and
// asserts after every step that the spliced CSR equals a Builder
// rebuild of the same edge set.
func TestDynamicRandomAgainstBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	g := MustFromEdges(n, []Edge{{U: 0, V: 1, Sign: Positive}})
	d := NewDynamic(g)
	for step := 0; step < 200; step++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		cur := d.Graph()
		m := Mutation{Op: MutAdd, U: u, V: v, Sign: Positive}
		if cur.HasEdge(u, v) {
			m.Op = MutRemove
			if rng.Intn(2) == 0 {
				m.Op = MutFlip
			}
		} else if rng.Intn(2) == 0 {
			m.Sign = Negative
		}
		if _, _, err := d.Apply(m); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := d.Graph()
		want := rebuildFromEdges(t, got)
		if !graphsEqual(got, want) {
			t.Fatalf("step %d: spliced graph disagrees with Builder rebuild\ngot:  %v\nwant: %v", step, got, want)
		}
	}
}
