package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package: the syntax of its
// non-test Go files plus the go/types artifacts the analyzers consume.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Analyzer is one named check. Run inspects a single package (with the
// cross-package Facts in hand) and returns its findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, facts *Facts) []Diagnostic
}

// All lists every analyzer, in the order tfsnvet runs them.
var All = []*Analyzer{
	Noalloc,
	ViewLife,
	KernelParity,
	AtomicMix,
	CtxPoll,
	SentinelCmp,
	TestOnly,
}

// ByName resolves an analyzer by its Name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Facts is the cross-package state gathered in one pass over every
// loaded package before any analyzer runs: the directive-declared view
// types and audited fields (viewlife), the fields observed under
// sync/atomic calls anywhere in the load (atomicmix), and the objects
// the load references (testonly). Keys are qualified names —
// "pkgpath.Name" for package-level objects, "pkgpath.Type.Method" for
// methods, "pkgpath.StructName.field" for fields — so they survive the
// source/export-data boundary between packages.
type Facts struct {
	// ViewTypes holds the types annotated //tfsn:viewtype: values of
	// these types alias engine-owned memory and must not outlive it.
	ViewTypes map[string]bool
	// ViewOK maps //tfsn:viewok(reason)-annotated fields and globals to
	// their audit reason.
	ViewOK map[string]string
	// AtomicFields maps struct fields that appear as &x.f arguments of
	// sync/atomic calls to one such call site (for the diagnostic).
	AtomicFields map[string]token.Position
	// Referenced holds every package-level object and method some
	// loaded (non-test) file references.
	Referenced map[string]bool
	// FacadeTypes holds the internal types their facade package (the
	// parent of their internal directory) references: their methods are
	// public API through the facade's aliases.
	FacadeTypes map[string]bool
	// Implementing holds the methods of internal types that supply a
	// method of an interface visible in the load.
	Implementing map[string]bool
}

// GatherFacts builds the cross-package Facts for one load. Analyzers
// that depend on cross-package directives (viewlife) or cross-package
// usage (atomicmix, testonly) only see what this load saw, so tfsnvet
// should run over the whole module (./...) — CI does.
func GatherFacts(pkgs []*Package) *Facts {
	f := &Facts{
		ViewTypes:    map[string]bool{},
		ViewOK:       map[string]string{},
		AtomicFields: map[string]token.Position{},
		Referenced:   map[string]bool{},
		FacadeTypes:  map[string]bool{},
		Implementing: map[string]bool{},
	}
	for _, p := range pkgs {
		gatherViewDirectives(p, f)
		gatherAtomicFields(p, f)
		gatherTestOnlyFacts(p, f)
	}
	markImplementing(pkgs, f)
	return f
}

// RunAnalyzers runs the given analyzers over every package and returns
// all findings sorted by position then analyzer name.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := GatherFacts(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(p, facts)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ---------------------------------------------------------------------------
// tfsn directives.
//
// A directive is a line comment of the form
//
//	//tfsn:name            or
//	//tfsn:name(argument)
//
// attached to a declaration (doc comment) or standing on/above the line
// it governs. The vocabulary:
//
//	//tfsn:noalloc              on a func: body must not allocate (noalloc)
//	//tfsn:allow-alloc(reason)  on a line: audited allocation escape hatch
//	//tfsn:viewtype             on a type: values alias engine memory (viewlife)
//	//tfsn:viewok(reason)       on a field/global: audited view retention
//	//tfsn:ctxpoll              on a func: loops must stay ctx-aware (ctxpoll)
//	//tfsn:ctxfree(reason)      on a loop line: audited ctx-free loop

const directivePrefix = "//tfsn:"

// parseDirective splits one comment line into a directive name and its
// parenthesised argument. ok is false for non-directive comments.
func parseDirective(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
	if i := strings.IndexByte(rest, '('); i >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return "", "", false
		}
		return rest[:i], strings.TrimSpace(rest[i+1 : len(rest)-1]), true
	}
	return rest, "", true
}

// hasDirective reports whether the comment group carries the named
// directive, returning its argument.
func hasDirective(doc *ast.CommentGroup, name string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if n, a, k := parseDirective(c.Text); k && n == name {
			return a, true
		}
	}
	return "", false
}

// lineSuppression records one //tfsn:<name>(reason) line directive.
type lineSuppression struct {
	pos    token.Position
	reason string
	used   bool
}

// collectLineSuppressions gathers every occurrence of the named line
// directive in the file, keyed by the line it governs: a directive on
// line L covers diagnostics on L and L+1 (same-line and comment-above
// placement).
func collectLineSuppressions(p *Package, file *ast.File, name string) map[int]*lineSuppression {
	out := map[int]*lineSuppression{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if n, a, ok := parseDirective(c.Text); ok && n == name {
				pos := p.Fset.Position(c.Pos())
				out[pos.Line] = &lineSuppression{pos: pos, reason: a}
			}
		}
	}
	return out
}

// suppressed consumes a suppression covering the given line, if any.
func suppressed(sups map[int]*lineSuppression, line int) *lineSuppression {
	if s := sups[line]; s != nil {
		s.used = true
		return s
	}
	if s := sups[line-1]; s != nil {
		s.used = true
		return s
	}
	return nil
}

// suppressionDebt reports directives with missing reasons and
// directives that suppressed nothing — both are diagnostics, so the
// escape hatches stay honest.
func suppressionDebt(analyzer, name string, sups map[int]*lineSuppression) []Diagnostic {
	var out []Diagnostic
	for _, s := range sups {
		if s.used && s.reason == "" {
			out = append(out, Diagnostic{Analyzer: analyzer, Pos: s.pos,
				Message: fmt.Sprintf("//tfsn:%s needs a reason: //tfsn:%s(why)", name, name)})
		}
		if !s.used {
			out = append(out, Diagnostic{Analyzer: analyzer, Pos: s.pos,
				Message: fmt.Sprintf("unused //tfsn:%s directive (nothing to suppress here)", name)})
		}
	}
	return out
}

// qualifiedTypeName names a defined type as "pkgpath.Name" (Facts key
// form); ok is false for unnamed types.
func qualifiedTypeName(t types.Type) (string, bool) {
	n, ok := t.(interface {
		Obj() *types.TypeName
	})
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// fieldKey names a struct field as "pkgpath.StructName.field". The
// struct name comes from the enclosing named type when the selection
// can supply one.
func fieldKey(pkgPath, structName, field string) string {
	return pkgPath + "." + structName + "." + field
}
