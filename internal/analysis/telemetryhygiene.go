package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// runTelemetry enforces the observability contract from DESIGN.md §8c:
// instrumented packages talk to the telemetry subsystem only through its
// nil-safe constructors and methods. Concretely, outside the telemetry
// package itself it forbids (1) composite literals and new() of
// telemetry types — a hand-rolled Span or Counter bypasses registration
// and the nil-receiver contract; (2) library (internal/) packages
// reaching for telemetry.Default(): metrics register through the
// package-level New* helpers, and only the serving binaries may touch
// the registry for exposition; (3) declaring a span as a value
// (telemetry.Span instead of *telemetry.Span) — nil-safety only exists
// behind the pointer.
func runTelemetry(p *Pass) {
	if !inScope("telemetry", p.Pkg) || p.Pkg.Path == telemetryPath {
		return
	}
	info := p.Pkg.Info
	fromTelemetry := func(t types.Type) bool { return typeFromPackage(t, telemetryPath) }
	libraryPkg := strings.Contains(p.Pkg.Path, "/internal/")
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if tv, ok := info.Types[x]; ok && fromTelemetry(tv.Type) {
					p.Reportf(x.Pos(),
						"telemetry values must come from the package constructors (StartSpan, Child, New*), not composite literals: a literal skips registration and the nil-safe contract")
				}
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" && info.Uses[id] == types.Universe.Lookup("new") {
					if len(x.Args) == 1 {
						if tv, ok := info.Types[x.Args[0]]; ok && fromTelemetry(tv.Type) {
							p.Reportf(x.Pos(),
								"telemetry values must come from the package constructors (StartSpan, Child, New*), not new()")
						}
					}
				}
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && libraryPkg {
					if pkgPath, ok := selectorPackage(info, sel); ok && pkgPath == telemetryPath && sel.Sel.Name == "Default" {
						p.Reportf(x.Pos(),
							"library packages must not touch telemetry.Default(): register metrics with the package-level telemetry.New* helpers; only serving binaries read the registry")
					}
				}
			case *ast.Field:
				if tv, ok := info.Types[x.Type]; ok {
					if named, isNamed := tv.Type.(*types.Named); isNamed && fromTelemetry(named) && named.Obj().Name() == "Span" {
						p.Reportf(x.Type.Pos(),
							"telemetry.Span must be carried as *telemetry.Span: the no-op nil receiver and the shared child list only work behind the pointer")
					}
				}
			}
			return true
		})
	}
}
