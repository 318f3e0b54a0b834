package compat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sgraph"
)

// TestDistanceSymmetric: Distance(u,v) == Distance(v,u) for every
// relation (the Comp relation and the cost built on it are symmetric).
func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(8)
		g := randomSignedGraph(rng, n, 25, 0.3)
		for _, k := range Kinds() {
			r := mustNew(k, g, Options{})
			for u := sgraph.NodeID(0); int(u) < n; u++ {
				for v := u + 1; int(v) < n; v++ {
					d1, ok1, err1 := r.Distance(u, v)
					d2, ok2, err2 := r.Distance(v, u)
					if err1 != nil || err2 != nil {
						t.Fatalf("%v: distance errors %v %v", k, err1, err2)
					}
					if ok1 != ok2 || (ok1 && d1 != d2) {
						t.Fatalf("trial %d %v: Distance(%d,%d)=(%d,%v) but reverse=(%d,%v)",
							trial, k, u, v, d1, ok1, d2, ok2)
					}
				}
			}
		}
	}
}

// TestCompatibleImpliesDistanceDefined: for the path-based relations,
// a compatible distinct pair always has a defined distance (the cost
// of a compatible team is therefore always well defined on a
// connected graph).
func TestCompatibleImpliesDistanceDefined(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		g := randomSignedGraph(rng, n, 4*n, 0.3)
		for _, k := range []Kind{SPA, SPM, SPO, SBPH, SBP} {
			r := mustNew(k, g, Options{})
			for u := sgraph.NodeID(0); int(u) < n; u++ {
				for v := sgraph.NodeID(0); int(v) < n; v++ {
					ok, err := r.Compatible(u, v)
					if err != nil {
						return false
					}
					if !ok {
						continue
					}
					if _, defined, err := r.Distance(u, v); err != nil || !defined {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSBPDistanceIsRealPathLength: the SBP distance for a compatible
// pair is at least the graph distance and at most n−1.
func TestSBPDistanceIsRealPathLength(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := randomSignedGraph(rng, n, 3*n, 0.3)
		sbp := mustNew(SBP, g, Options{})
		nne := mustNew(NNE, g, Options{})
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			for v := sgraph.NodeID(0); int(v) < n; v++ {
				if u == v {
					continue
				}
				db, okb, err := sbp.Distance(u, v)
				if err != nil {
					return false
				}
				if !okb {
					continue
				}
				if int(db) > n-1 {
					return false
				}
				dg, okg, err := nne.Distance(u, v)
				if err != nil || !okg {
					return false // balanced path exists ⇒ connected
				}
				if db < dg {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectedGraphRelations: on a graph with two components, the
// path-based relations mark cross-component pairs incompatible while
// NNE accepts them (no negative edge) with no distance defined.
func TestDisconnectedGraphRelations(t *testing.T) {
	g := sgraph.MustFromEdges(4, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
	})
	for _, k := range []Kind{DPE, SPA, SPM, SPO, SBPH, SBP} {
		r := mustNew(k, g, Options{})
		ok, err := r.Compatible(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("%v: cross-component pair compatible", k)
		}
	}
	nne := mustNew(NNE, g, Options{})
	ok, err := nne.Compatible(0, 2)
	if err != nil || !ok {
		t.Fatalf("NNE cross-component = %v,%v, want true (no negative edge)", ok, err)
	}
	if _, defined, err := nne.Distance(0, 2); err != nil || defined {
		t.Fatalf("NNE cross-component distance should be undefined")
	}
}
