package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/balance"
	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/texttable"
)

// BeamRow is one line of the SBPH beam-width ablation: the fraction
// of compatible user pairs SBPH certifies at beam width K, next to
// the exact SBP reference — quantifying what the prefix-property
// heuristic trades away (the paper reports the K-free difference as
// ≈2.5 points on Slashdot).
type BeamRow struct {
	BeamWidth   int     // 0 = the exact SBP reference row
	CompUsers   float64 // fraction of compatible user pairs
	RecallOfSBP float64 // fraction of exact-SBP-compatible pairs found
}

// BeamAblation sweeps the SBPH beam width on the Slashdot stand-in
// (the only dataset with an exact SBP reference) and reports
// compatible-pair fractions and recall against exact SBP. widths nil
// selects {1, 2, 4, 8, 16}. Config.SampleSources restricts the scan
// (exact SBP rows dominate the cost); 0 scans every source.
func BeamAblation(cfg Config, widths []int) ([]BeamRow, error) {
	cfg = cfg.WithDefaults()
	if widths == nil {
		widths = []int{1, 2, 4, 8, 16}
	}
	for _, k := range widths {
		if k <= 0 {
			return nil, fmt.Errorf("experiments: beam width %d, want > 0", k)
		}
	}
	d, err := loadDataset(cfg, "slashdot")
	if err != nil {
		return nil, err
	}
	g := d.Graph
	n := g.NumNodes()

	rng := rand.New(rand.NewSource(cfg.Seed + 808))
	sources := sampleSources(cfg, rng, n)
	if sources == nil {
		sources = make([]sgraph.NodeID, n)
		for i := range sources {
			sources[i] = sgraph.NodeID(i)
		}
	}

	// Exact reference rows, computed once per sampled source through
	// the relation's cache (CacheCap covers every source).
	exactRel, _, err := cfg.Engine.Build(compat.SBP, g, compat.Options{})
	if err != nil {
		return nil, err
	}
	heurRels := make([]compat.Relation, len(widths))
	for i, k := range widths {
		heurRels[i], err = compat.New(compat.SBPH, g, compat.Options{BeamWidth: k, CacheCap: n + 1})
		if err != nil {
			return nil, err
		}
	}

	var pairs, exactCompat int64
	heurCompat := make([]int64, len(widths))
	heurFound := make([]int64, len(widths)) // among exact-compatible pairs
	for _, u := range sources {
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			if u == v {
				continue
			}
			pairs++
			exactOK, err := exactRel.Compatible(u, v)
			if err != nil {
				return nil, err
			}
			if exactOK {
				exactCompat++
			}
			for i, rel := range heurRels {
				ok, err := rel.Compatible(u, v)
				if err != nil {
					return nil, err
				}
				if ok {
					heurCompat[i]++
					if exactOK {
						heurFound[i]++
					}
				}
			}
		}
	}
	if pairs == 0 {
		return nil, fmt.Errorf("experiments: beam ablation scanned no pairs")
	}

	rows := []BeamRow{{
		BeamWidth:   0,
		CompUsers:   float64(exactCompat) / float64(pairs),
		RecallOfSBP: 1,
	}}
	for i, k := range widths {
		recall := 1.0
		if exactCompat > 0 {
			recall = float64(heurFound[i]) / float64(exactCompat)
		}
		rows = append(rows, BeamRow{
			BeamWidth:   k,
			CompUsers:   float64(heurCompat[i]) / float64(pairs),
			RecallOfSBP: recall,
		})
	}
	return rows, nil
}

// RenderBeamAblation formats the beam sweep.
func RenderBeamAblation(rows []BeamRow) *texttable.Table {
	t := texttable.New("beam width K", "comp. users %", "recall of SBP %").
		SetTitle(fmt.Sprintf("SBPH beam-width ablation (Slashdot stand-in; default K=%d)", balance.DefaultBeamWidth))
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.BeamWidth)
		if r.BeamWidth == 0 {
			label = "exact SBP"
		}
		t.AddRow(label, texttable.Pct(r.CompUsers), texttable.Pct(r.RecallOfSBP))
	}
	return t
}
