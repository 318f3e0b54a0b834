package team

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/skills"
)

// respell returns a random non-canonical spelling of task: a shuffle
// with every skill kept and a random number of duplicates injected at
// random positions. forceDup guarantees at least one duplicate.
func respell(rng *rand.Rand, task skills.Task, forceDup bool) skills.Task {
	out := append(skills.Task(nil), task...)
	dups := rng.Intn(3)
	if forceDup && dups == 0 {
		dups = 1
	}
	for i := 0; i < dups; i++ {
		out = append(out, task[rng.Intn(len(task))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestPlanCacheCanonicalisationProperty: for random canonical tasks
// and random respellings — permutations with injected duplicate
// skills — every spelling must canonicalise to the same skill
// sequence, hash to the same planKeyHash, and hit the cache slot the
// canonical spelling created; a task differing in any one skill must
// miss. This pins the keying edge cases (duplicates collapsing,
// boundary positions, single-skill tasks) beyond the fixed examples
// in TestPlanCacheCanonicalKeying.
func TestPlanCacheCanonicalisationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	const universe = 40
	for trial := 0; trial < 300; trial++ {
		c := newPlanCache(4)
		k := 1 + rng.Intn(6)
		used := make(map[skills.SkillID]bool, k)
		var canon skills.Task
		for len(canon) < k {
			s := skills.SkillID(rng.Intn(universe))
			if !used[s] {
				used[s] = true
				canon = append(canon, s)
			}
		}
		slices.Sort(canon)
		wantHash := planKeyHash(canon, opts, 0)

		// Publish a plan under the canonical key, exactly as a solve
		// would (planWith stores the canonical task in the plan).
		plan := &TaskPlan{task: append(skills.Task(nil), canon...), opts: opts}
		if got := c.insert(plan); got != plan {
			t.Fatalf("trial %d: fresh insert did not keep the plan", trial)
		}

		for spell := 0; spell < 6; spell++ {
			spelled := respell(rng, canon, spell == 0)
			c.mu.Lock()
			gotCanon := append(skills.Task(nil), canonicalInto(&c.canon, spelled)...)
			c.mu.Unlock()
			if !slices.Equal(gotCanon, canon) {
				t.Fatalf("trial %d: canonicalInto(%v) = %v, want %v", trial, spelled, gotCanon, canon)
			}
			if h := planKeyHash(gotCanon, opts, 0); h != wantHash {
				t.Fatalf("trial %d: spelling %v hashed to %#x, canonical to %#x", trial, spelled, h, wantHash)
			}
			got, ok := c.lookup(spelled, opts, 0)
			if !ok || got != plan {
				t.Fatalf("trial %d: spelling %v missed the canonical entry (ok=%v)", trial, spelled, ok)
			}
		}

		// Mutating any single position must change the key.
		mut := append(skills.Task(nil), canon...)
		pos := rng.Intn(len(mut))
		for {
			s := skills.SkillID(rng.Intn(universe))
			if !used[s] {
				mut[pos] = s
				break
			}
		}
		if _, ok := c.lookup(mut, opts, 0); ok {
			t.Fatalf("trial %d: mutated task %v (from %v) hit the cache", trial, mut, canon)
		}
		st := c.stats()
		if st.Hits != 6 || st.Misses != 1 {
			t.Fatalf("trial %d: stats %+v, want 6 hits / 1 miss", trial, st)
		}
	}
}
