package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/compat"
)

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3})
	if s.N != 3 || math.Abs(s.Mean-2) > 1e-12 {
		t.Fatalf("series = %+v", s)
	}
	if math.Abs(s.Std-1) > 1e-12 {
		t.Fatalf("std = %g, want 1", s.Std)
	}
	if got := summarize(nil); got.N != 0 || got.Mean != 0 {
		t.Fatalf("empty series = %+v", got)
	}
	if got := summarize([]float64{5}); got.Std != 0 || got.Mean != 5 {
		t.Fatalf("single series = %+v", got)
	}
	if !strings.Contains(s.String(), "±") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestRepeatedValidation(t *testing.T) {
	if _, err := Repeated(tinyConfig(), 0, nil); err == nil {
		t.Fatal("reps 0 accepted")
	}
	wantErr := errors.New("boom")
	_, err := Repeated(tinyConfig(), 2, func(Config) (map[string]float64, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// Inconsistent metric sets across repetitions are an error.
	call := 0
	_, err = Repeated(tinyConfig(), 2, func(Config) (map[string]float64, error) {
		call++
		if call == 1 {
			return map[string]float64{"a": 1}, nil
		}
		return map[string]float64{"b": 2}, nil
	})
	if err == nil {
		t.Fatal("inconsistent metrics accepted")
	}
}

func TestRepeatedVariesSeeds(t *testing.T) {
	var seeds []int64
	_, err := Repeated(tinyConfig(), 3, func(c Config) (map[string]float64, error) {
		seeds = append(seeds, c.Seed)
		return map[string]float64{"x": float64(c.Seed)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 || seeds[0]+1 != seeds[1] || seeds[1]+1 != seeds[2] {
		t.Fatalf("seeds = %v", seeds)
	}
}

func TestTable3Repeated(t *testing.T) {
	cfg := tinyConfig()
	cfg.Tasks = 8
	series, err := Table3Repeated(cfg, 2)
	if err != nil {
		t.Fatalf("Table3Repeated: %v", err)
	}
	if len(series) != 2*len(TeamRelations()) {
		t.Fatalf("series = %d", len(series))
	}
	for _, key := range SortedKeys(series) {
		s := series[key]
		if s.N != 2 || s.Mean < 0 || s.Mean > 1 {
			t.Fatalf("%s: %+v", key, s)
		}
	}
	// The monotone-chain shape must hold on the means.
	for _, proj := range Table3Projections() {
		err := MonotoneInChain(series, func(k compat.Kind) string { return proj + "/" + k.String() }, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", proj, err)
		}
	}
}

func TestFigure2aRepeated(t *testing.T) {
	cfg := tinyConfig()
	cfg.Tasks = 6
	series, err := Figure2aRepeated(cfg, 2)
	if err != nil {
		t.Fatalf("Figure2aRepeated: %v", err)
	}
	// 4 algorithms × 5 relations.
	if len(series) != 4*len(TeamRelations()) {
		t.Fatalf("series = %d", len(series))
	}
	err = MonotoneInChain(series, func(k compat.Kind) string { return k.String() + "/" + AlgoLCMD }, 0.15)
	if err != nil {
		t.Fatalf("LCMD chain: %v", err)
	}
}

func TestRenderSeries(t *testing.T) {
	m := map[string]Series{
		"b/metric": {Mean: 0.5, Std: 0.1, N: 3},
		"a/metric": {Mean: 0.9, Std: 0.0, N: 3},
	}
	out := RenderSeries("title", m).String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "±") {
		t.Fatalf("render:\n%s", out)
	}
	// Stable key order: "a/metric" before "b/metric".
	if strings.Index(out, "a/metric") > strings.Index(out, "b/metric") {
		t.Fatalf("keys not sorted:\n%s", out)
	}
}

func TestMonotoneInChainDetectsViolation(t *testing.T) {
	m := map[string]Series{
		"SPA": {Mean: 0.9},
		"SPM": {Mean: 0.2},
	}
	if err := MonotoneInChain(m, func(k compat.Kind) string { return k.String() }, 0.01); err == nil {
		t.Fatal("violation not detected")
	}
	if err := MonotoneInChain(m, func(k compat.Kind) string { return k.String() }, 0.8); err != nil {
		t.Fatalf("tolerance not applied: %v", err)
	}
}

// TestHarnessSelfCheck runs a miniature of the full experiment
// pipeline and verifies the headline shapes programmatically.
func TestHarnessSelfCheck(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.02, Tasks: 10, TaskSize: 4}
	series, err := Figure2aRepeated(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Solution rate must respect the relation chain for each algorithm.
	for _, algo := range []string{AlgoLCMD, AlgoLCMC, AlgoMax} {
		err := MonotoneInChain(series, func(k compat.Kind) string {
			return k.String() + "/" + algo
		}, 0.15)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// MonotoneInChain checks that a per-relation metric respects the
// containment chain within tolerance — the cross-repetition shape
// assertion used by tests and the harness self-check. key builds the
// map key for a relation; missing keys are skipped.
func MonotoneInChain(m map[string]Series, key func(compat.Kind) string, tolerance float64) error {
	chain := []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBPH, compat.NNE}
	prev := -math.MaxFloat64
	prevKind := compat.SPA
	for _, k := range chain {
		s, ok := m[key(k)]
		if !ok {
			continue
		}
		if s.Mean+tolerance < prev {
			return fmt.Errorf("experiments: %v mean %.4f below %v mean %.4f", k, s.Mean, prevKind, prev)
		}
		prev, prevKind = s.Mean, k
	}
	return nil
}
