package container

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntQueueFIFOOrder(t *testing.T) {
	q := NewIntQueue(2)
	for i := int32(0); i < 100; i++ {
		q.Push(i)
	}
	for i := int32(0); i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty after draining")
	}
}

func TestIntQueueZeroValue(t *testing.T) {
	var q IntQueue
	q.Push(7)
	q.Push(8)
	if got := q.Pop(); got != 7 {
		t.Fatalf("Pop = %d, want 7", got)
	}
	if got := q.Pop(); got != 8 {
		t.Fatalf("Pop = %d, want 8", got)
	}
}

func TestIntQueueWrapAround(t *testing.T) {
	q := NewIntQueue(4)
	// Interleave pushes and pops so head/tail wrap several times.
	next, expect := int32(0), int32(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for !q.Empty() {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d values, pushed %d", expect, next)
	}
}

func TestIntQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	var q IntQueue
	q.Pop()
}

func TestIntQueueReset(t *testing.T) {
	q := NewIntQueue(4)
	for i := int32(0); i < 10; i++ {
		q.Push(i)
	}
	q.Reset()
	if !q.Empty() {
		t.Fatal("queue not empty after Reset")
	}
	q.Push(42)
	if got := q.Pop(); got != 42 {
		t.Fatalf("Pop after Reset = %d, want 42", got)
	}
}

// TestIntQueueMatchesSlice drives the queue with random operations and
// compares against a plain slice model.
func TestIntQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewIntQueue(1)
	var model []int32
	for op := 0; op < 10000; op++ {
		if rng.Intn(3) == 0 && len(model) > 0 {
			want := model[0]
			model = model[1:]
			if got := q.Pop(); got != want {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, want)
			}
		} else {
			v := int32(rng.Intn(1 << 20))
			model = append(model, v)
			q.Push(v)
		}
		if q.Empty() != (len(model) == 0) {
			t.Fatalf("op %d: Empty = %v with %d queued", op, q.Empty(), len(model))
		}
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if len(b.Words()) != 3 {
		t.Fatalf("words = %d, want 3", len(b.Words()))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Contains(i) {
			t.Fatalf("fresh bitset contains %d", i)
		}
		b.Set(i)
		if !b.Contains(i) {
			t.Fatalf("bitset missing %d after Set", i)
		}
	}
	if got := count(b); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	b := NewBitset(256)
	want := []int{3, 64, 65, 100, 200, 255}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBitsetMatchesMap checks the bitset against a map-based model with
// random operations, via testing/quick-style generated input.
func TestBitsetMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBitset(1 << 12)
		model := map[int]bool{}
		for _, raw := range ops {
			i := int(raw) % (1 << 12)
			switch raw % 2 {
			case 0:
				b.Set(i)
				model[i] = true
			case 1:
				if b.Contains(i) != model[i] {
					return false
				}
			}
		}
		return count(b) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
