package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// runOut runs the command line args and returns what it printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(&out, args)
	return out.String(), err
}

// TestBuildSaveReopen: an engine built and saved with -out, reopened
// with -in over the same dataset, prints the same -info and answers
// every -query exactly as a freshly built engine.
func TestBuildSaveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slashdot-sbph.stpk")
	base := []string{"-dataset", "slashdot", "-seed", "3"}
	build := append(base[:len(base):len(base)], "-relation", "SBPH")
	if out, err := runOut(t, append(build, "-out", path)...); err != nil || !strings.HasPrefix(out, "wrote "+path) {
		t.Fatalf("save: %q, %v", out, err)
	}
	for _, q := range []string{"0,0", "3,17", "17,3", "5,200", " 213 , 1 "} {
		want, err := runOut(t, append(build, "-info", "-query", q)...)
		if err != nil {
			t.Fatalf("fresh -query %s: %v", q, err)
		}
		got, err := runOut(t, append(base, "-in", path, "-info", "-query", q)...)
		if err != nil {
			t.Fatalf("-in -query %s: %v", q, err)
		}
		if got != want || !strings.Contains(got, "relation SBPH") {
			t.Fatalf("-query %s: opened printed\n%s\nfresh printed\n%s", q, got, want)
		}
	}
}

// TestFilesReopenAsDataset: an engine built over a stand-in saved as
// -edges/-skills files, then reopened with -in over the same files,
// answers -info -query exactly as the engine built from -dataset.
func TestFilesReopenAsDataset(t *testing.T) {
	dir := t.TempDir()
	d, err := datasets.Load("slashdot", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	files := []string{"-edges", filepath.Join(dir, "slashdot.edges"), "-skills", filepath.Join(dir, "slashdot.skills")}
	path := filepath.Join(dir, "slashdot-spm.stpk")
	if _, err := runOut(t, append(files, "-relation", "SPM", "-out", path)...); err != nil {
		t.Fatalf("save over files: %v", err)
	}
	for _, q := range []string{"3,17", "0,213", "42,42"} {
		want, err := runOut(t, "-dataset", "slashdot", "-relation", "SPM", "-info", "-query", q)
		if err != nil {
			t.Fatalf("-dataset -query %s: %v", q, err)
		}
		got, err := runOut(t, append(files, "-in", path, "-info", "-query", q)...)
		if err != nil {
			t.Fatalf("-edges -in -query %s: %v", q, err)
		}
		if got != want {
			t.Fatalf("-query %s: reopened over files printed\n%s\n-dataset printed\n%s", q, got, want)
		}
	}
}

// TestOpenRejectsBadInput: -in over another seed's dataset fails the
// fingerprint check, a truncated file fails, -in needs the dataset,
// -relation with -in is a usage error (the file records the relation),
// and -query refuses ids that are malformed, overflow int32 or lie
// outside the graph.
func TestOpenRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.stpk")
	if _, err := runOut(t, "-dataset", "slashdot", "-out", path); err != nil {
		t.Fatal(err)
	}
	if _, err := runOut(t, "-dataset", "slashdot", "-seed", "2", "-in", path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("other seed: err = %v, want a fingerprint error", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.stpk")
	if err := os.WriteFile(short, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runOut(t, "-dataset", "slashdot", "-in", short); err == nil {
		t.Fatal("truncated file accepted")
	}
	if _, err := runOut(t, "-in", path); err == nil {
		t.Fatal("-in without -dataset accepted")
	}
	if _, err := runOut(t, "-dataset", "slashdot", "-in", path, "-relation", "NNE", "-info"); !errors.Is(err, errUsage) {
		t.Fatalf("-relation with -in: err = %v, want a usage error", err)
	}
	for _, q := range []string{"1", "a,2", "4294967296,0", "0,2147483648", "-1,0", "0,214"} {
		if _, err := runOut(t, "-dataset", "slashdot", "-in", path, "-query", q); err == nil {
			t.Errorf("-query %q accepted", q)
		}
	}
}
