package container

import (
	"math/rand"
	"testing"
)

func TestUnionFindBasic(t *testing.T) {
	uf := NewUnionFind(10)
	if sets(uf) != 10 {
		t.Fatalf("sets = %d, want 10", sets(uf))
	}
	if !uf.Union(0, 1) {
		t.Fatal("first Union(0,1) should merge")
	}
	if uf.Union(0, 1) {
		t.Fatal("second Union(0,1) should not merge")
	}
	uf.Union(2, 3)
	uf.Union(1, 3)
	if sets(uf) != 7 {
		t.Fatalf("sets = %d, want 7", sets(uf))
	}
	for _, pair := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		if !uf.Connected(pair[0], pair[1]) {
			t.Fatalf("%d and %d should be connected", pair[0], pair[1])
		}
	}
	if uf.Connected(0, 4) {
		t.Fatal("0 and 4 should not be connected")
	}
}

// TestUnionFindMatchesNaive compares against a naive labelling model
// under a random union sequence.
func TestUnionFindMatchesNaive(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(7))
	uf := NewUnionFind(n)
	label := make([]int, n) // naive model: relabel on union
	for i := range label {
		label[i] = i
	}
	for op := 0; op < 2000; op++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		merged := uf.Union(x, y)
		if merged == (label[x] == label[y]) {
			t.Fatalf("op %d: Union(%d,%d) merged=%v but labels %d,%d", op, x, y, merged, label[x], label[y])
		}
		if merged {
			old, new_ := label[y], label[x]
			for i := range label {
				if label[i] == old {
					label[i] = new_
				}
			}
		}
		// Spot-check connectivity of a random pair.
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if uf.Connected(a, b) != (label[a] == label[b]) {
			t.Fatalf("op %d: Connected(%d,%d) disagrees with model", op, a, b)
		}
	}
}

func TestSignedUnionFindBalancedTriangles(t *testing.T) {
	// Balanced triangle: + + + .
	uf := NewSignedUnionFind(3)
	mustUnion(t, uf, 0, 1, 0)
	mustUnion(t, uf, 1, 2, 0)
	if _, ok := uf.Union(0, 2, 0); !ok {
		t.Fatal("+++ triangle should be balanced")
	}

	// Balanced triangle: + − − (one positive, two negative edges).
	uf = NewSignedUnionFind(3)
	mustUnion(t, uf, 0, 1, 0)
	mustUnion(t, uf, 1, 2, 1)
	if _, ok := uf.Union(0, 2, 1); !ok {
		t.Fatal("+−− triangle should be balanced")
	}

	// Unbalanced triangle: + + − .
	uf = NewSignedUnionFind(3)
	mustUnion(t, uf, 0, 1, 0)
	mustUnion(t, uf, 1, 2, 0)
	if _, ok := uf.Union(0, 2, 1); ok {
		t.Fatal("++− triangle should be unbalanced")
	}

	// Unbalanced triangle: − − − .
	uf = NewSignedUnionFind(3)
	mustUnion(t, uf, 0, 1, 1)
	mustUnion(t, uf, 1, 2, 1)
	if _, ok := uf.Union(0, 2, 1); ok {
		t.Fatal("−−− triangle should be unbalanced")
	}
}

func TestSignedUnionFindParityChains(t *testing.T) {
	// Chain 0 −(+) 1 −(−) 2 −(−) 3: parity(0,3) = 0^1^1 = 0.
	uf := NewSignedUnionFind(4)
	mustUnion(t, uf, 0, 1, 0)
	mustUnion(t, uf, 1, 2, 1)
	mustUnion(t, uf, 2, 3, 1)
	conn, rel := uf.Connected(0, 3)
	if !conn || rel != 0 {
		t.Fatalf("Connected(0,3) = %v,%d, want true,0", conn, rel)
	}
	conn, rel = uf.Connected(0, 2)
	if !conn || rel != 1 {
		t.Fatalf("Connected(0,2) = %v,%d, want true,1", conn, rel)
	}
	if conn, _ := uf.Connected(0, 0); !conn {
		t.Fatal("node must be connected to itself")
	}
}

// TestSignedUnionFindMatchesBruteForce adds random signed edges and
// checks the incremental balance verdict against an exhaustive parity
// check (BFS two-colouring over the accepted edges).
func TestSignedUnionFindMatchesBruteForce(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		uf := NewSignedUnionFind(n)
		var accepted []sufEdge
		for e := 0; e < 120; e++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			rel := uint8(rng.Intn(2))
			// Model verdict: two-colour accepted edges + the new edge.
			want := bruteForceBalanced(n, append(append([]sufEdge{}, accepted...), sufEdge{u, v, rel}))
			_, ok := uf.Union(u, v, rel)
			if ok != want {
				t.Fatalf("trial %d edge %d (%d,%d,%d): incremental=%v brute=%v", trial, e, u, v, rel, ok, want)
			}
			if ok {
				accepted = append(accepted, sufEdge{u, v, rel})
			}
		}
	}
}

type sufEdge struct {
	u, v int32
	rel  uint8
}

func bruteForceBalanced(n int, edges []sufEdge) bool {
	adj := make([][]struct {
		to  int32
		rel uint8
	}, n)
	for _, e := range edges {
		adj[e.u] = append(adj[e.u], struct {
			to  int32
			rel uint8
		}{e.v, e.rel})
		adj[e.v] = append(adj[e.v], struct {
			to  int32
			rel uint8
		}{e.u, e.rel})
	}
	colour := make([]int8, n)
	for i := range colour {
		colour[i] = -1
	}
	for s := 0; s < n; s++ {
		if colour[s] != -1 {
			continue
		}
		colour[s] = 0
		stack := []int32{int32(s)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range adj[u] {
				want := colour[u] ^ int8(e.rel)
				if colour[e.to] == -1 {
					colour[e.to] = want
					stack = append(stack, e.to)
				} else if colour[e.to] != want {
					return false
				}
			}
		}
	}
	return true
}

// sets counts the disjoint sets: one representative each.
func sets(uf *UnionFind) int {
	c := 0
	for x := range uf.parent {
		if uf.Find(int32(x)) == int32(x) {
			c++
		}
	}
	return c
}

// Connected reports whether x and y share a set, and if so the relative
// parity between them (0: same side / positive relation, 1: opposite).
func (uf *SignedUnionFind) Connected(x, y int32) (connected bool, rel uint8) {
	rx, px := uf.find(x)
	ry, py := uf.find(y)
	if rx != ry {
		return false, 0
	}
	return true, px ^ py
}

func mustUnion(t *testing.T, uf *SignedUnionFind, x, y int32, rel uint8) {
	t.Helper()
	if _, ok := uf.Union(x, y, rel); !ok {
		t.Fatalf("Union(%d,%d,%d) unexpectedly inconsistent", x, y, rel)
	}
}
