package team

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestFormSurface pins the formation entry points: exactly these
// exported Form* methods on *Solver and *TaskPlan, one per kind of
// formation. A new context-free twin or *Team-returning wrapper needs
// a deliberate edit here.
func TestFormSurface(t *testing.T) {
	want := []string{
		"Solver.FormBatch",
		"Solver.FormBatchContext",
		"Solver.FormBatchSpecs",
		"Solver.FormIntoContext",
		"Solver.FormTopKContext",
		"Solver.FormTopKDiverseContext",
		"TaskPlan.FormIntoContext",
		"TaskPlan.FormTopKContext",
		"TaskPlan.FormTopKDiverseContext",
	}
	var got []string
	for _, typ := range []reflect.Type{reflect.TypeOf(&Solver{}), reflect.TypeOf(&TaskPlan{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Form") {
				got = append(got, typ.Elem().Name()+"."+name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("Form* entry points:\n got %v\nwant %v", got, want)
	}
}
