package compat

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// saveOpen saves m to a fresh file and opens it over g, through the
// mapping or the decode fallback.
func saveOpen(t testing.TB, m *ShardedMatrix, g *sgraph.Graph, useMmap bool) *ShardedMatrix {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.stpk")
	if err := m.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	o, err := openSharded(path, g, useMmap)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	return o
}

// checkOpenedAgrees asserts an opened engine answers bit-identically to
// the engine it was saved from: RowWords, DistanceRow (packing
// included), Compatible and Distance on every pair.
func checkOpenedAgrees(t *testing.T, label string, built, opened *ShardedMatrix) {
	t.Helper()
	n := built.NumNodes()
	if opened.NumNodes() != n || opened.Kind() != built.Kind() || opened.NumShards() != built.NumShards() {
		t.Fatalf("%s: opened engine is %v/%d nodes/%d shards, built %v/%d/%d", label,
			opened.Kind(), opened.NumNodes(), opened.NumShards(), built.Kind(), n, built.NumShards())
	}
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		bw, ow := built.RowWords(u), opened.RowWords(u)
		for i := range bw {
			if bw[i] != ow[i] {
				t.Fatalf("%s: RowWords(%d)[%d] = %#x, built %#x", label, u, i, ow[i], bw[i])
			}
		}
		bd, od := built.DistanceRow(u), opened.DistanceRow(u)
		if (bd.d32 == nil) != (od.d32 == nil) || bd.Len() != od.Len() {
			t.Fatalf("%s: DistanceRow(%d) packing differs", label, u)
		}
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			bdv, bok := bd.At(v)
			odv, ook := od.At(v)
			if bdv != odv || bok != ook {
				t.Fatalf("%s: DistanceRow(%d).At(%d) = (%d,%v), built (%d,%v)", label, u, v, odv, ook, bdv, bok)
			}
			bc, _ := built.Compatible(u, v)
			oc, err := opened.Compatible(u, v)
			if err != nil || oc != bc {
				t.Fatalf("%s: Compatible(%d,%d) = %v,%v, built %v", label, u, v, oc, err, bc)
			}
			bdd, bdef, _ := built.Distance(u, v)
			odd, odef, err := opened.Distance(u, v)
			if err != nil || odd != bdd || odef != bdef {
				t.Fatalf("%s: Distance(%d,%d) = (%d,%v,%v), built (%d,%v)", label, u, v, odd, odef, err, bdd, bdef)
			}
		}
	}
}

// fileSum is the SHA-256 of the file at path.
func fileSum(t testing.TB, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestSaveOpenRoundTrip: every kind's matrix, on small random graphs
// and on the multi-block inputs, saves and reopens (mapped and decoded,
// alternately) to an engine that answers bit-identically.
func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	// Cap the exact SBP enumeration to keep the builds fast.
	opts := Options{Exact: balance.ExactOptions{MaxLen: 7}}
	var graphs []blockGraph
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(14)
		graphs = append(graphs, blockGraph{g: randomSignedGraph(rng, n, n+rng.Intn(4*n), 0.3)})
	}
	small := len(graphs)
	graphs = append(graphs, blockGraphs(rng)...)
	for trial, bg := range graphs {
		opts := opts
		if trial >= small {
			opts = blockOpts
		}
		for ki, k := range Kinds() {
			if !bg.runs(k) {
				continue
			}
			m, err := newMatrix(k, bg.g, opts)
			if err != nil {
				t.Fatalf("trial %d %v: newMatrix: %v", trial, k, err)
			}
			opened := saveOpen(t, m, bg.g, (trial+ki)%2 == 0)
			checkOpenedAgrees(t, fmt.Sprintf("trial %d %v", trial, k), m, opened)
			opened.Close()
		}
	}
}

// TestOpenedMatchesLiveRelation: an engine opened from a file answers
// every query exactly as the live relation of its kind, and reports the
// kind, size and graph it was opened over. The saved engine has several
// shards.
func TestOpenedMatchesLiveRelation(t *testing.T) {
	const n = 40
	g := randomSignedGraph(rand.New(rand.NewSource(1605)), n, 160, 0.25)
	for ki, k := range []Kind{DPE, SPA, SPM, SPO, SBPH, NNE} {
		live := mustNew(k, g, Options{CacheCap: 64})
		built := mustSharded(t, k, g, ShardedOptions{ShardRows: 16})
		opened := saveOpen(t, built, g, ki%2 == 0)
		built.Close()
		if opened.Kind() != k || opened.NumNodes() != n || opened.NumShards() != 3 || opened.Graph() != g {
			t.Fatalf("%v: opened engine is %v, %d nodes, %d shards", k, opened.Kind(), opened.NumNodes(), opened.NumShards())
		}
		for u := sgraph.NodeID(0); u < n; u++ {
			for v := sgraph.NodeID(0); v < n; v++ {
				wantOK, err := live.Compatible(u, v)
				if err != nil {
					t.Fatal(err)
				}
				gotOK, err := opened.Compatible(u, v)
				if err != nil || gotOK != wantOK {
					t.Fatalf("%v: Compatible(%d,%d) = %v,%v, live %v", k, u, v, gotOK, err, wantOK)
				}
				wd, wdef, err := live.Distance(u, v)
				if err != nil {
					t.Fatal(err)
				}
				gd, gdef, err := opened.Distance(u, v)
				if err != nil || gdef != wdef || (gdef && gd != wd) {
					t.Fatalf("%v: Distance(%d,%d) = (%d,%v,%v), live (%d,%v)", k, u, v, gd, gdef, err, wd, wdef)
				}
			}
		}
		opened.Close()
	}
}

// TestSaveOpenEmptyGraph: an n = 0 engine saves as a header-only file
// and opens, mapped or decoded, to an empty engine of its kind.
func TestSaveOpenEmptyGraph(t *testing.T) {
	g := sgraph.NewBuilder(0).MustBuild()
	m, err := newMatrix(SPM, g, Options{})
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	for _, useMmap := range []bool{true, false} {
		o := saveOpen(t, m, g, useMmap)
		if o.NumNodes() != 0 || o.NumShards() != 0 || o.Kind() != SPM {
			t.Fatalf("mmap=%v: opened empty engine: %d nodes, %d shards, %v",
				useMmap, o.NumNodes(), o.NumShards(), o.Kind())
		}
		o.Close()
	}
}

// TestShardedRangeChecks: Compatible and Distance reject ids outside
// [0, n) with an error on every engine configuration — built, spilling
// and opened — instead of panicking or answering.
func TestShardedRangeChecks(t *testing.T) {
	g := randomSignedGraph(rand.New(rand.NewSource(1601)), 5, 8, 0.3)
	matrix := mustMatrix(NNE, g, Options{})
	spill := mustSharded(t, NNE, g, ShardedOptions{ShardRows: 1, MaxResidentShards: 2, SpillDir: t.TempDir()})
	defer spill.Close()
	opened := saveOpen(t, spill, g, true)
	defer opened.Close()
	for name, m := range map[string]*ShardedMatrix{"matrix": matrix, "spill": spill, "opened": opened} {
		for _, p := range [][2]sgraph.NodeID{{0, 5}, {5, 0}, {-1, 0}, {0, -1}, {0, 105}, {1 << 30, 1}} {
			if _, err := m.Compatible(p[0], p[1]); err == nil {
				t.Errorf("%s: Compatible(%d,%d) accepted", name, p[0], p[1])
			}
			if _, _, err := m.Distance(p[0], p[1]); err == nil {
				t.Errorf("%s: Distance(%d,%d) accepted", name, p[0], p[1])
			}
		}
		if ok, err := m.Compatible(4, 4); err != nil || !ok {
			t.Errorf("%s: Compatible(4,4) = %v,%v", name, ok, err)
		}
	}
}

// TestOpenShardedViewsAliasMapping: on a mapped little-endian host an
// opened engine serves every row as a view into the file mapping, so it
// holds no rows on the heap.
func TestOpenShardedViewsAliasMapping(t *testing.T) {
	if !spillMmapSupported || !hostLittleEndian {
		t.Skip("no zero-copy views on this platform")
	}
	g := randomSignedGraph(rand.New(rand.NewSource(1602)), 90, 300, 0.3)
	built := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 32})
	opened := saveOpen(t, built, g, true)
	defer opened.Close()
	data := opened.spill.data
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	hi := lo + uintptr(len(data))
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		row := opened.RowWords(u)
		p := uintptr(unsafe.Pointer(unsafe.SliceData(row)))
		d := uintptr(unsafe.Pointer(unsafe.SliceData(opened.DistanceRow(u).d8)))
		if p < lo || p >= hi || d < lo || d >= hi {
			t.Fatalf("row %d is not a view into the mapping", u)
		}
	}
	if opened.SpillLoads() != 0 || opened.ResidentShards() != opened.NumShards() {
		t.Fatalf("opened engine: %d loads, %d of %d shards resident",
			opened.SpillLoads(), opened.ResidentShards(), opened.NumShards())
	}
}

// TestOpenShardedRejectsBadFiles: every kind of bad file is an error,
// never a panic — truncation at any length, a wrong magic, version,
// kind or packing, a graph whose fingerprint differs, rows with bits
// past n, slot epoch tags that disagree with the header, and header
// sizes that overflow or disagree with the file length.
func TestOpenShardedRejectsBadFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	g := randomSignedGraph(rng, 13, 30, 0.3)
	m := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 5})
	defer m.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "good")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	try := func(name string, b []byte, g *sgraph.Graph) {
		t.Helper()
		p := filepath.Join(dir, "bad")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, useMmap := range []bool{true, false} {
			if o, err := openSharded(p, g, useMmap); err == nil {
				o.Close()
				t.Errorf("%s (mmap=%v): bad file accepted", name, useMmap)
			}
		}
	}
	for cut := 0; cut < len(good); cut++ {
		try("truncated", good[:cut], g)
	}
	try("extended", append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0), g)
	patch := func(off int, v uint64, width int) []byte {
		b := append([]byte(nil), good...)
		if width == 4 {
			binary.LittleEndian.PutUint32(b[off:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(b[off:], v)
		}
		return b
	}
	// Header offsets follow fileHeader's field order.
	const offMagic, offVersion, offKind, offWide, offBeam = 0, 4, 8, 12, 16
	const offN, offRows, offEpoch, offFP = 40, 48, 56, 64
	try("magic", patch(offMagic, 0x12345678, 4), g)
	try("retired version", patch(offVersion, uint64(fileVersion-1), 4), g)
	try("version", patch(offVersion, uint64(fileVersion+1), 4), g)
	try("kind", patch(offKind, uint64(numKinds), 4), g)
	try("packing", patch(offWide, 2, 4), g)
	try("int32 packing of uint8 slots", patch(offWide, 1, 4), g)
	try("beam 0", patch(offBeam, 0, 8), g)
	try("n huge", patch(offN, 1<<62, 8), g)
	try("n off by one", patch(offN, 14, 8), g)
	try("shard rows 0", patch(offRows, 0, 8), g)
	try("shard rows past n", patch(offRows, 1<<63, 8), g)
	try("shard rows 4", patch(offRows, 4, 8), g)
	try("epoch", patch(offEpoch, 3, 8), g)
	try("fingerprint", patch(offFP, 0, 8), g)

	// The same file opened over other graphs: another random graph of
	// the same size, and this one with a single sign flipped.
	try("other graph", good, randomSignedGraph(rng, 13, 30, 0.3))
	e := g.Edges()[0]
	flipped := sgraph.NewDynamic(g)
	if _, _, err := flipped.Apply(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
		t.Fatal(err)
	}
	try("flipped sign", good, flipped.Graph())

	// Rows with a bit set past n: the first slot's first row's tail.
	slot0 := int(fileHeaderBytes)
	tailed := append([]byte(nil), good...)
	tailed[slot0+slotHeaderBytes+7] |= 0x80 // bit 63 of row 0's only word
	try("tail bit", tailed, g)
	// A slot whose epoch tag disagrees with the header.
	try("slot epoch", patch(slot0, 9, 8), g)

	// The good file still opens after all that.
	o, err := OpenSharded(path, g)
	if err != nil {
		t.Fatalf("good file: %v", err)
	}
	o.Close()
}
