// The testonly analyzer: production code exports nothing that only
// tests use. An exported package-level name or method of a package
// under an internal/ directory can only be reached from inside the
// module, so if no non-test file of the module references it, it is
// either a test helper living in production code (move it into a
// _test.go file) or dead (delete it).

package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// TestOnly flags exported internal objects with no non-test reference.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported internal names need a non-test reference in the module",
	Run:  runTestOnly,
}

func runTestOnly(p *Package, facts *Facts) []Diagnostic {
	if _, ok := facadePath(p.ImportPath); !ok {
		return nil
	}
	var out []Diagnostic
	report := func(obj types.Object, what string) {
		out = append(out, Diagnostic{Analyzer: "testonly", Pos: p.Fset.Position(obj.Pos()),
			Message: fmt.Sprintf("exported %s has no non-test reference in the module; move it into a _test.go file or delete it", what)})
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !facts.Referenced[objectKey(obj)] {
			report(obj, objectKind(obj)+" "+name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		// Interface methods are not methods of the named type, so the
		// loop below never sees them.
		named, ok := tn.Type().(*types.Named)
		if !ok || facts.FacadeTypes[objectKey(tn)] {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			key := objectKey(m)
			if m.Exported() && !facts.Referenced[key] && !facts.Implementing[key] {
				report(m, "method "+tn.Name()+"."+m.Name())
			}
		}
	}
	return out
}

// facadePath returns the package that can re-export an internal
// package: the parent of its last internal element, as Go's import
// rule draws it ("repro" for "repro/internal/compat"). ok is false for
// packages outside any internal directory — those are public API.
func facadePath(path string) (string, bool) {
	if i := strings.LastIndex(path, "/internal/"); i >= 0 {
		return path[:i], true
	}
	return "", false
}

func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}

// objectKey names a package-level object "pkgpath.Name" and a method
// "pkgpath.Type.Method" (Facts key form). It is "" for everything else
// (locals, fields, interface methods, universe objects).
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// gatherTestOnlyFacts records what p's files reference (Referenced)
// and which internal types p re-exports as their facade (FacadeTypes).
func gatherTestOnlyFacts(p *Package, f *Facts) {
	for _, obj := range p.Info.Uses {
		key := objectKey(obj)
		if key == "" {
			continue
		}
		f.Referenced[key] = true
		if tn, ok := obj.(*types.TypeName); ok {
			if facade, ok := facadePath(tn.Pkg().Path()); ok && facade == p.ImportPath {
				f.FacadeTypes[key] = true
			}
		}
	}
}

// markImplementing records in f.Implementing every method of a loaded
// internal package's type whose pointer method set satisfies an
// interface visible in the load — declared in a loaded package or one
// of its imports, or written as a literal — and that supplies one of
// that interface's methods. Loaded packages and their imports are
// type-checked apart (source versus export data), so the match compares
// method names and signature text rather than types.Identical.
func markImplementing(pkgs []*Package, f *Facts) {
	var isets []map[string]bool
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		set := map[string]bool{}
		for i := 0; i < it.NumMethods(); i++ {
			set[methodSig(it.Method(i))] = true
		}
		isets = append(isets, set)
	}
	seen := map[string]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg.Path()] {
			return
		}
		seen[pkg.Path()] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}

	for _, p := range pkgs {
		if _, ok := facadePath(p.ImportPath); !ok {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := map[string]types.Object{}
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				have[methodSig(m.(*types.Func))] = m
			}
		next:
			for _, iset := range isets {
				for sig := range iset {
					if have[sig] == nil {
						continue next
					}
				}
				for sig := range iset {
					if key := objectKey(have[sig]); key != "" {
						f.Implementing[key] = true
					}
				}
			}
		}
	}
}

// methodSig is a method's identity for interface matching: its Id
// (package-qualified when unexported) and its parameter and result
// types, without their names.
func methodSig(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Id())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString(" (")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), pathQualifier))
			b.WriteString(",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func pathQualifier(pkg *types.Package) string { return pkg.Path() }
