// Package lint implements tfsnvet, the repo-specific analysis pass
// that machine-checks invariants CI otherwise only spot-checks with
// benchmarks and smoke tests. It is written against the standard
// library only (go/ast, go/parser, go/types, go list) — the module's
// zero-dependency property extends to its own tooling.
//
// # Analyzers
//
// noalloc — functions annotated //tfsn:noalloc must have
// allocation-free bodies: no make/new, no bare append (append into a
// resliced prefix like append(dst[:0], ...) is fine — the backing
// array is preallocated), no slice/map composite literals or
// &CompositeLit, no string concatenation or string<->[]byte
// conversions, no fmt calls, no closures or go statements, no
// interface boxing. The check is syntactic and body-local: callees are
// not followed (the CI alloc smokes cover end-to-end behaviour); this
// pass pins the shape of the annotated frame itself. Audited
// exceptions carry //tfsn:allow-alloc(reason) on or above the line.
//
// viewlife — types annotated //tfsn:viewtype (compat.DistRow,
// compat.DistRows) alias engine-owned, possibly mmap-backed memory and
// must not outlive the engine (PR 5's views-do-not-outlive-Close
// rule). Storing a view value into a struct field, package-level
// variable or channel is flagged unless the destination's declaration
// carries an audited //tfsn:viewok(reason).
//
// kernelparity — for every <base>_generic.go with build-tag sibling
// files <base>_<arch>.go (PR 8's kernels_generic.go /
// kernels_amd64v3.go pair), the package-level function sets and
// signatures must match exactly. Both sides are parsed tag-blind, so
// drift is caught on every CI leg, not just the matrix leg whose tags
// select the drifted file.
//
// atomicmix — a struct field that appears as an &x.f argument to any
// sync/atomic call is atomic everywhere: every other plain read or
// write of the same field is flagged, citing the atomic call site.
// Fields are tracked cross-package by qualified name.
//
// ctxpoll — functions named *Context (and anything annotated
// //tfsn:ctxpoll) must keep their loops cancellation-aware (PR 6's
// deadline rule): each outermost loop must reference the ctx parameter
// — polling ctx.Err()/ctx.Done(), forwarding ctx to a callee, or
// capturing it in a worker closure. Trivially bounded loops carry
// //tfsn:ctxfree(reason).
//
// sentinelcmp — comparing an error against a package-level sentinel
// with == or != (or switching on an error value with sentinel cases)
// is flagged: the repo wraps errors (%w), so only errors.Is matches
// reliably.
//
// testonly — an exported package-level name or method of a package
// under an internal/ directory must be referenced by some non-test
// file of the load; a reference from its own package counts. Such a
// name is reachable only from inside the module, so one that no
// production file uses is a test helper (move it into a _test.go
// file) or dead (delete it). Struct fields and interface methods are
// not checked. A method is exempt when its type's method set
// satisfies an interface visible in the load (fmt.Stringer,
// sort.Interface, compat.Relation, interface literals, error and the
// Unwrap method errors.Is follows) and the method
// supplies one of that interface's methods, or when its type is
// referenced by the package's facade — the parent of its internal
// directory, the root package for the module's internal packages —
// whose aliases make those methods public API.
//
// # Directives
//
//	//tfsn:noalloc              func doc: body must not allocate
//	//tfsn:allow-alloc(reason)  line: audited allocation
//	//tfsn:viewtype             type decl: values alias engine memory
//	//tfsn:viewok(reason)       field/global decl: audited view retention
//	//tfsn:ctxpoll              func doc: loops must stay ctx-aware
//	//tfsn:ctxfree(reason)      loop line: audited ctx-free loop
//
// Escape hatches are themselves audited: an empty reason or a
// directive that suppresses nothing is a diagnostic, so annotation
// debt cannot accumulate silently.
//
// # Scope and caveats
//
// viewlife, atomicmix and testonly gather cross-package facts from the
// packages in the current load only, so run tfsnvet over the whole
// module (./...) as CI does. On a partial load viewlife and atomicmix
// can only under-report, while testonly over-reports: it flags names
// whose only users were left out of the load. Embedded-field promotion and
// multi-value assignments may fail open (no diagnostic), never
// spuriously. Test files are not analyzed.
package lint
