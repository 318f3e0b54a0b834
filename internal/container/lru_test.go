package container

import (
	"math/rand"
	"testing"
)

// TestIndexLRUOrder: recency order and eviction order are inverse of
// touch order.
func TestIndexLRUOrder(t *testing.T) {
	l := NewIndexLRU(5)
	if got := l.PopBack(); got != -1 {
		t.Fatalf("PopBack on empty = %d, want -1", got)
	}
	for _, i := range []int{0, 1, 2, 3} {
		l.Touch(i)
	}
	l.Touch(1) // 1 becomes most recent; eviction order 0, 2, 3, 1
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	for _, want := range []int{0, 2, 3, 1} {
		if got := l.PopBack(); got != want {
			t.Fatalf("PopBack = %d, want %d", got, want)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len after draining = %d, want 0", l.Len())
	}
}

// TestIndexLRURemove: removing head, middle, tail and untracked
// handles keeps the list consistent.
func TestIndexLRURemove(t *testing.T) {
	l := NewIndexLRU(4)
	for i := 0; i < 4; i++ {
		l.Touch(i)
	}
	l.Remove(3) // head
	l.Remove(1) // middle
	l.Remove(1) // already removed: no-op
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.PopBack(); got != 0 {
		t.Fatalf("PopBack = %d, want 0", got)
	}
	if got := l.PopBack(); got != 2 {
		t.Fatalf("PopBack = %d, want 2", got)
	}
	l.Touch(1) // re-tracking after removal works
	if !l.Contains(1) || l.Len() != 1 {
		t.Fatalf("re-tracked handle lost: contains=%v len=%d", l.Contains(1), l.Len())
	}
}

// TestIndexLRUAgainstModel: random Touch/Remove/PopBack against a
// slice-based reference model.
func TestIndexLRUAgainstModel(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	l := NewIndexLRU(n)
	var model []int // most recent first
	indexOf := func(i int) int {
		for j, v := range model {
			if v == i {
				return j
			}
		}
		return -1
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0: // Touch
			if j := indexOf(i); j >= 0 {
				model = append(model[:j], model[j+1:]...)
			}
			model = append([]int{i}, model...)
			l.Touch(i)
		case 1: // Remove
			if j := indexOf(i); j >= 0 {
				model = append(model[:j], model[j+1:]...)
			}
			l.Remove(i)
		case 2: // PopBack
			want := -1
			if len(model) > 0 {
				want = model[len(model)-1]
				model = model[:len(model)-1]
			}
			if got := l.PopBack(); got != want {
				t.Fatalf("step %d: PopBack = %d, want %d", step, got, want)
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, l.Len(), len(model))
		}
	}
}
