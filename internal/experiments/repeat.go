package experiments

import (
	"fmt"
	"math"
	"sort"
)

// Series summarises one metric across repetitions with different
// seeds: mean, sample standard deviation, and the repetition count.
// The paper reports single runs over 50 random tasks; repetitions add
// the error bars a reproduction should have.
type Series struct {
	Mean, Std float64
	N         int
}

// String renders "mean ± std".
func (s Series) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.Std)
}

func summarize(xs []float64) Series {
	n := len(xs)
	if n == 0 {
		return Series{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	var sq float64
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(sq / float64(n-1))
	}
	return Series{Mean: mean, Std: std, N: n}
}

// Repeated runs an experiment extraction reps times with seeds
// cfg.Seed, cfg.Seed+1, … and aggregates every named metric into a
// Series. The extraction returns metric name → value for one run.
func Repeated(cfg Config, reps int, run func(Config) (map[string]float64, error)) (map[string]Series, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiments: reps = %d, want > 0", reps)
	}
	cfg = cfg.WithDefaults()
	samples := map[string][]float64{}
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		metrics, err := run(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: repetition %d: %w", r, err)
		}
		for k, v := range metrics {
			samples[k] = append(samples[k], v)
		}
	}
	out := make(map[string]Series, len(samples))
	for k, xs := range samples {
		if len(xs) != reps {
			return nil, fmt.Errorf("experiments: metric %q present in %d of %d repetitions", k, len(xs), reps)
		}
		out[k] = summarize(xs)
	}
	return out, nil
}

// Figure2aRepeated runs the Figure 2(a) experiment reps times and
// returns "RELATION/ALGORITHM" → solved-fraction series.
func Figure2aRepeated(cfg Config, reps int) (map[string]Series, error) {
	return Repeated(cfg, reps, func(c Config) (map[string]float64, error) {
		results, err := Figure2ab(c)
		if err != nil {
			return nil, err
		}
		metrics := make(map[string]float64, len(results))
		for _, r := range results {
			metrics[r.Relation.String()+"/"+r.Algorithm] = r.SolvedFrac
		}
		return metrics, nil
	})
}

// Table3Repeated runs Table 3 reps times and returns
// "PROJECTION/RELATION" → compatible-fraction series.
func Table3Repeated(cfg Config, reps int) (map[string]Series, error) {
	return Repeated(cfg, reps, func(c Config) (map[string]float64, error) {
		rows, err := Table3(c)
		if err != nil {
			return nil, err
		}
		metrics := make(map[string]float64, len(rows))
		for _, r := range rows {
			metrics[r.Projection+"/"+r.Relation.String()] = r.CompatibleFrac
		}
		return metrics, nil
	})
}

// SortedKeys returns a Series map's keys in a stable order, for
// rendering.
func SortedKeys(m map[string]Series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
