package sgraph_test

import (
	"testing"

	"repro/internal/cliflags"
	"repro/internal/sgraph"
)

// TestMutOpRoundTrip: every wire name MutOp.String prints parses back
// to its op through the one mutation parser, cliflags.ParseMutation.
func TestMutOpRoundTrip(t *testing.T) {
	for _, op := range []sgraph.MutOp{sgraph.MutAdd, sgraph.MutRemove, sgraph.MutFlip} {
		got, err := cliflags.ParseMutation(op.String() + ":0:1")
		if err != nil || got.Op != op {
			t.Fatalf("ParseMutation(%v) = %v, %v", op, got.Op, err)
		}
	}
	if _, err := cliflags.ParseMutation("bogus:0:1"); err == nil {
		t.Fatal("ParseMutation(bogus) succeeded")
	}
}
