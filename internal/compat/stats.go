package compat

import (
	"fmt"
	"runtime"

	"repro/internal/container"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// Stats aggregates the Table 2 measurements for one relation:
// the fraction of compatible user pairs, the average relation-distance
// between compatible users, and (optionally) the skill-pair
// compatibility matrix that also powers the MAX upper bound of
// Figure 2(a).
//
// Pairs are ordered (source u, target v≠u). On the full source set
// the ordered fraction equals the unordered one because the scanned
// relations are row-symmetric.
//
// # SBPH statistics
//
// The SBPH heuristic is directional, so its lazy rows are directed
// while the packed engine stores the canonicalised (min→max)
// symmetrisation. ComputeStats measures the *symmetrised* relation on
// every engine: on a full scan of the lazy engine, whether a directed
// SBPH row comes from the cache or is computed for the scan, the scan
// restricts itself to the canonical upper-triangle entries (v > u) and
// counts each once per direction, which reproduces the packed engine's
// numbers exactly. On a *sampled* scan the
// symmetrised entry for v < u lives in row v — which the sample may
// not include — so restricting to the upper triangle would discard
// half of every sampled row and starve the skill-pair union; sampled
// scans therefore stream the whole directed row as a proxy for the
// symmetrised relation, whose estimates can differ from a packed
// engine's in the second decimal (asymmetric SBPH pairs are rare).
// Every other kind has symmetric rows.
type Stats struct {
	Kind            Kind
	Pairs           int64 // ordered pairs scanned
	CompatiblePairs int64
	DistSum         int64 // relation-distance summed over compatible pairs with a defined distance
	DistCount       int64
	Skills          *SkillMatrix // nil unless requested
	SourcesScanned  int
	TotalSources    int
	// Kernels names the compiled-in internal/kernels variant
	// ("portable" or "amd64v3") the scan — and everything else in the
	// process — ran on, so recorded numbers stay attributable to a
	// kernel path.
	Kernels string
}

// UserFraction returns the fraction of scanned pairs that are
// compatible.
func (s *Stats) UserFraction() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.CompatiblePairs) / float64(s.Pairs)
}

// AvgDistance returns the mean relation-distance between compatible
// users.
func (s *Stats) AvgDistance() float64 {
	if s.DistCount == 0 {
		return 0
	}
	return float64(s.DistSum) / float64(s.DistCount)
}

// StatsOptions controls ComputeStats.
type StatsOptions struct {
	// Sources restricts the scan to the given source nodes; nil scans
	// every node (exact statistics).
	Sources []sgraph.NodeID
	// Workers bounds the parallelism; ≤0 uses GOMAXPROCS.
	Workers int
	// Assign, when non-nil, requests the skill-pair compatibility
	// matrix over this assignment.
	Assign *skills.Assignment
}

// ComputeStats scans one relation row per source and aggregates pair,
// distance and (optionally) skill-pair statistics, over the same
// (words, DistRow) row format on both engines. The packed engine
// resolves each row from its shards. The lazy engine reads a row from
// its cache when it is there and otherwise computes it into a worker
// scratch, streamed and dropped without touching the cache.
func ComputeStats(rel Relation, opts StatsOptions) (*Stats, error) {
	g := rel.Graph()
	n := g.NumNodes()
	sources := opts.Sources
	if sources == nil {
		sources = make([]sgraph.NodeID, n)
		for i := range sources {
			sources[i] = sgraph.NodeID(i)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}

	// rowOf resolves source u's row for worker w. Lazy SBPH rows are
	// directed, so a full scan measures them on their canonical upper
	// triangle: the reported numbers then describe the symmetrised
	// relation the interface serves, exactly like the packed engine's.
	// A sampled scan cannot reach the canonical entry of a (v<u, u)
	// pair without row v, so it streams the whole directed row as a
	// proxy instead of halving its sample. See the Stats doc.
	var rowOf func(w int, u sgraph.NodeID) ([]uint64, DistRow, error)
	canonicalise := false
	switch r := rel.(type) {
	case *ShardedMatrix:
		rowOf = func(_ int, u sgraph.NodeID) ([]uint64, DistRow, error) { return r.rowView(u) }
	case *lazyRelation:
		canonicalise = r.canonical() && opts.Sources == nil
		var scratches []*rowScratch
		if len(sources) > 0 {
			scratches, workers = newWorkerScratches(workers, n)
		}
		rowOf = func(w int, u sgraph.NodeID) ([]uint64, DistRow, error) {
			row, _ := r.cached(u)
			if row == nil {
				if err := r.computeRow(u, scratches[w]); err != nil {
					return nil, DistRow{}, err
				}
				row = &scratches[w].row
			}
			return row.words, DistRow{d32: row.dist}, nil
		}
	default:
		return nil, fmt.Errorf("compat: relation %v does not expose rows", rel.Kind())
	}
	if len(sources) == 0 {
		return &Stats{Kind: rel.Kind(), TotalSources: n, Kernels: KernelsVariant()}, nil
	}

	var numSkills int
	if opts.Assign != nil {
		numSkills = opts.Assign.Universe().Len()
	}
	type acc struct {
		stats  Stats
		skills *SkillMatrix
	}
	accs := make([]acc, workers)
	if numSkills > 0 {
		for w := range accs {
			accs[w].skills = NewSkillMatrix(numSkills)
		}
	}
	err := container.ParallelFor(len(sources), workers, func(w, i int) error {
		a := &accs[w]
		u := sources[i]
		words, dist, err := rowOf(w, u)
		if err != nil {
			return err
		}
		a.stats.SourcesScanned++
		var uSkills []skills.SkillID
		if a.skills != nil {
			uSkills = opts.Assign.UserSkills(u)
			// Reflexive self-compatibility: one user holding
			// two skills makes that skill pair compatible.
			a.skills.markCross(uSkills, uSkills)
		}
		// Canonicalised scan: row u's entries are authoritative only
		// for v > u (entry (u,v) of the symmetrised relation is the
		// search from min to max), and each counts for both ordered
		// directions. weight stays 1 on the full-row scan.
		v, weight := sgraph.NodeID(0), int64(1)
		if canonicalise {
			v, weight = u+1, 2
		}
		for end := dist.Len(); int(v) < end; v++ {
			if v == u {
				continue
			}
			a.stats.Pairs += weight
			if words[int(v)>>6]&(1<<uint(int(v)&63)) == 0 {
				continue
			}
			a.stats.CompatiblePairs += weight
			if d, ok := dist.At(v); ok {
				a.stats.DistSum += weight * int64(d)
				a.stats.DistCount += weight
			}
			if a.skills != nil {
				a.skills.markCross(uSkills, opts.Assign.UserSkills(v))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	total := &Stats{Kind: rel.Kind(), TotalSources: n, Kernels: KernelsVariant()}
	if numSkills > 0 {
		total.Skills = NewSkillMatrix(numSkills)
	}
	for w := range accs {
		total.Pairs += accs[w].stats.Pairs
		total.CompatiblePairs += accs[w].stats.CompatiblePairs
		total.DistSum += accs[w].stats.DistSum
		total.DistCount += accs[w].stats.DistCount
		total.SourcesScanned += accs[w].stats.SourcesScanned
		if total.Skills != nil {
			total.Skills.merge(accs[w].skills)
		}
	}
	return total, nil
}

// SkillMatrix records which unordered skill pairs have at least one
// compatible holder pair (including a single user holding both).
type SkillMatrix struct {
	n    int
	bits []uint64
}

// NewSkillMatrix returns an empty matrix over n skills.
func NewSkillMatrix(n int) *SkillMatrix {
	return &SkillMatrix{n: n, bits: make([]uint64, (n*n+63)/64)}
}

func (m *SkillMatrix) idx(s1, s2 skills.SkillID) int { return int(s1)*m.n + int(s2) }

func (m *SkillMatrix) set(s1, s2 skills.SkillID) {
	i := m.idx(s1, s2)
	m.bits[i>>6] |= 1 << uint(i&63)
	j := m.idx(s2, s1)
	m.bits[j>>6] |= 1 << uint(j&63)
}

// Compatible reports whether skill pair (s1, s2) has a compatible
// holder pair.
func (m *SkillMatrix) Compatible(s1, s2 skills.SkillID) bool {
	i := m.idx(s1, s2)
	return m.bits[i>>6]&(1<<uint(i&63)) != 0
}

func (m *SkillMatrix) markCross(a, b []skills.SkillID) {
	for _, s1 := range a {
		for _, s2 := range b {
			m.set(s1, s2)
		}
	}
}

func (m *SkillMatrix) merge(o *SkillMatrix) {
	for i, w := range o.bits {
		m.bits[i] |= w
	}
}

// Fraction returns the fraction of unordered distinct pairs of
// held skills (both skills have ≥1 holder) that are compatible.
func (m *SkillMatrix) Fraction(a *skills.Assignment) float64 {
	held := a.SkillsWithHolders()
	var compatible, total int64
	for i, s1 := range held {
		for _, s2 := range held[i+1:] {
			total++
			if m.Compatible(s1, s2) {
				compatible++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(compatible) / float64(total)
}

// TaskFeasible reports the MAX upper-bound test of Figure 2(a): every
// skill of the task has a holder and every pair of task skills is
// compatible.
func (m *SkillMatrix) TaskFeasible(a *skills.Assignment, t skills.Task) bool {
	for _, s := range t {
		if a.NumHolders(s) == 0 {
			return false
		}
	}
	for i, s1 := range t {
		for _, s2 := range t[i+1:] {
			if !m.Compatible(s1, s2) {
				return false
			}
		}
	}
	return true
}
