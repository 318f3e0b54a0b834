package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	for _, fw := range f.Workloads {
		w, err := findWorkload(fw.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if fw.Why != w.why {
			t.Errorf("%s: why %q in BENCHMARK.json, %q in workloads.go", fw.Name, fw.Why, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, declared %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, declared %+v", i, m, d)
		}
	}
}

func TestWorkloadsParseAsTfsndFlags(t *testing.T) {
	for _, w := range workloads {
		if _, err := parseDaemon(w.tfsndArgs); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	cfg, err := parseDaemon(nil)
	if err != nil {
		t.Fatal(err)
	}
	// tfsnd's defaults: relation SPO, plan cache 256, queue 64, lazy
	// engine, mmap spill, no coalescing.
	if cfg.relation != "SPO" || cfg.planCache != 256 || cfg.srv.Queue != 64 || cfg.eng.Name != "lazy" ||
		!cfg.eng.MmapSpill || cfg.srv.CoalesceWait != 0 || cfg.seed != 1 {
		t.Errorf("defaults %+v", cfg)
	}
}

func TestRenderNeedsEveryMetric(t *testing.T) {
	o := &outcome{correct: true, attempted: 1}
	vals := values{}
	for _, m := range endToEnd {
		vals[m.name] = 1
	}
	if _, err := render(o, endToEnd, vals); err != nil {
		t.Fatal(err)
	}
	delete(vals, "p50_ms")
	if _, err := render(o, endToEnd, vals); err == nil {
		t.Error("a result without p50_ms rendered")
	}
}
