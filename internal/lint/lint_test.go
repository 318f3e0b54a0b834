package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtures maps each fixture directory under testdata/src to the one
// analyzer it exercises; the directory and every package below it load
// together. Muting an analyzer (or breaking its detection) leaves its
// fixture's want comments unmatched, so every analyzer is pinned by at
// least one positive and one negative case.
var fixtures = map[string]string{
	"noalloc":          "noalloc",
	"viewlife":         "viewlife",
	"kernelparity":     "kernelparity",
	"kernelparity_bad": "kernelparity",
	"atomicmix":        "atomicmix",
	"ctxpoll":          "ctxpoll",
	"sentinelcmp":      "sentinelcmp",
	"testonly":         "testonly",
}

// expectation is one `// want` comment: a regexp that some diagnostic
// on its line must match.
type expectation struct {
	file string // base filename
	line int
	re   *regexp.Regexp
	hits int
}

var (
	// want[`regex`] or want[-1] `regex` "regex" ... — an optional
	// bracketed line offset, then one or more quoted regexps.
	wantRe   = regexp.MustCompile(`// want(\[-?\d+\])?(.*)$`)
	quotedRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

func TestFixtures(t *testing.T) {
	for dir, name := range fixtures {
		t.Run(dir, func(t *testing.T) {
			a := ByName(name)
			if a == nil {
				t.Fatalf("no analyzer %q", name)
			}
			fixDir := filepath.Join("testdata", "src", dir)
			wants := parseWants(t, fixDir)
			if dir != "kernelparity" && len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			pkgs, err := Load(".", "./"+filepath.ToSlash(fixDir)+"/...")
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range RunAnalyzers(pkgs, []*Analyzer{a}) {
				if !matchWant(wants, d) {
					t.Errorf("spurious diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if w.hits == 0 {
					t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
				}
			}
		})
	}
}

// parseWants scans every fixture file under dir for // want comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for _, path := range paths {
		name := filepath.Base(path)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wantLine := i + 1
			if m[1] != "" {
				off, err := strconv.Atoi(m[1][1 : len(m[1])-1])
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q", name, i+1, m[1])
				}
				wantLine += off
			}
			quoted := quotedRe.FindAllString(m[2], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: want comment without a quoted pattern", name, i+1)
			}
			for _, q := range quoted {
				pat := q[1 : len(q)-1]
				if q[0] == '"' {
					if pat, err = strconv.Unquote(q); err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", name, i+1, q, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
				}
				out = append(out, &expectation{file: name, line: wantLine, re: re})
			}
		}
	}
	return out
}

// matchWant marks the first expectation matching d as hit.
func matchWant(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hits++
			return true
		}
	}
	return false
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		in        string
		name, arg string
		ok        bool
	}{
		{"//tfsn:noalloc", "noalloc", "", true},
		{"//tfsn:allow-alloc(cold path)", "allow-alloc", "cold path", true},
		{"//tfsn:viewok()", "viewok", "", true},
		{"// plain comment", "", "", false},
		{"//tfsn:broken(unclosed", "", "", false},
		{"//go:build amd64", "", "", false},
	}
	for _, c := range cases {
		name, arg, ok := parseDirective(c.in)
		if name != c.name || arg != c.arg || ok != c.ok {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, name, arg, ok, c.name, c.arg, c.ok)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nonesuch") != nil {
		t.Error("ByName(nonesuch) != nil")
	}
}
