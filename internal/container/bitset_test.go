package container

import (
	"math/rand"
	"testing"
)

// TestBitsetWordOps: CopyFrom/And/AndCount must agree with the
// element-wise reference on random sets.
func TestBitsetWordOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	a, b := NewBitset(n), NewBitset(n)
	inA, inB := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
			inA[i] = true
		}
		if rng.Intn(2) == 0 {
			b.Set(i)
			inB[i] = true
		}
	}
	wantBoth := 0
	for i := 0; i < n; i++ {
		if inA[i] && inB[i] {
			wantBoth++
		}
	}
	if got := AndCount(a.Words(), b.Words()); got != wantBoth {
		t.Fatalf("AndCount = %d, want %d", got, wantBoth)
	}

	c := NewBitset(n)
	c.CopyFrom(a.Words())
	c.And(b.Words())
	if count(c) != wantBoth {
		t.Fatalf("And count = %d, want %d", count(c), wantBoth)
	}
	for i := 0; i < n; i++ {
		if c.Contains(i) != (inA[i] && inB[i]) {
			t.Fatalf("And member %d = %v", i, c.Contains(i))
		}
	}
}

// TestBitsetGrow: Grow must clear, resize, and reuse the backing
// array when capacity allows — the scratch-reuse contract.
func TestBitsetGrow(t *testing.T) {
	b := NewBitset(0)
	b.Grow(130)
	if len(b.Words()) != 3 {
		t.Fatalf("after Grow(130): words=%d", len(b.Words()))
	}
	b.Set(0)
	b.Set(129)
	backing := &b.Words()[0]
	b.Grow(70) // shrink: reuse the array, clear everything
	if len(b.Words()) != 2 {
		t.Fatalf("after Grow(70): words=%d", len(b.Words()))
	}
	if &b.Words()[0] != backing {
		t.Fatal("shrinking Grow reallocated the backing array")
	}
	if count(b) != 0 {
		t.Fatalf("Grow left %d stale members", count(b))
	}
	b.Set(69)
	b.Grow(128) // within capacity: reuse and clear again
	if &b.Words()[0] != backing || count(b) != 0 {
		t.Fatal("Grow within capacity must reuse and clear")
	}
	b.Grow(500) // beyond capacity: fresh, zeroed array
	if len(b.Words()) != 8 || count(b) != 0 {
		t.Fatalf("after Grow(500): words=%d count=%d", len(b.Words()), count(b))
	}
	b.Set(499)
	if !b.Contains(499) {
		t.Fatal("grown bitset lost a member")
	}
}

// count is the set's member count.
func count(b *Bitset) int {
	c := 0
	b.ForEach(func(int) { c++ })
	return c
}

func TestBitsetWordOpsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on word-length mismatch")
		}
	}()
	NewBitset(64).And(NewBitset(128).Words())
}
