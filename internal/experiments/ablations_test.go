package experiments

import (
	"strings"
	"testing"
)

func TestBeamAblation(t *testing.T) {
	cfg := tinyConfig()
	// Exact SBP rows dominate the cost (paths up to diameter+2, the
	// cap cliflags.RelationOptions sets); sampling keeps the test in
	// single-digit seconds.
	cfg.SampleSources = 20
	rows, err := BeamAblation(cfg, []int{1, 4})
	if err != nil {
		t.Fatalf("BeamAblation: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (exact + 2 widths)", len(rows))
	}
	exact := rows[0]
	if exact.BeamWidth != 0 || exact.RecallOfSBP != 1 {
		t.Fatalf("exact row = %+v", exact)
	}
	for _, r := range rows[1:] {
		// The heuristic never certifies more pairs than exact SBP and
		// recall is a valid fraction.
		if r.CompUsers > exact.CompUsers+1e-9 {
			t.Fatalf("K=%d: SBPH fraction %.4f exceeds exact %.4f", r.BeamWidth, r.CompUsers, exact.CompUsers)
		}
		if r.RecallOfSBP < 0 || r.RecallOfSBP > 1 {
			t.Fatalf("K=%d: recall %.4f out of range", r.BeamWidth, r.RecallOfSBP)
		}
		if r.RecallOfSBP < 0.9 {
			t.Fatalf("K=%d: recall %.4f implausibly low on a mostly balanced graph", r.BeamWidth, r.RecallOfSBP)
		}
	}
	if _, err := BeamAblation(cfg, []int{0}); err == nil {
		t.Fatal("beam width 0 accepted")
	}
	out := RenderBeamAblation(rows).String()
	if !strings.Contains(out, "exact SBP") || !strings.Contains(out, "recall") {
		t.Fatalf("render:\n%s", out)
	}
}
