package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// runFlight enforces the flight-recorder contract (DESIGN.md §8f):
// the black-box ring must stay bounded, enumerable and test-attachable.
// Concretely: (1) library (internal/) packages must not reach for
// telemetry.FlightDefault() — recorders arrive through explicit
// plumbing (SetFlight, config fields), so tests can attach their own
// ring and only the serving binaries own the process-wide one; (2) the
// kind argument of Record and Anomaly must be a compile-time constant —
// a run-time-built kind explodes the kind set a post-mortem reader greps
// through (variable payload belongs in the detail argument, which is
// truncated at append).
func runFlight(p *Pass) {
	if !inScope("flight", p.Pkg) || p.Pkg.Path == telemetryPath {
		return
	}
	info := p.Pkg.Info
	libraryPkg := strings.Contains(p.Pkg.Path, "/internal/")
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			x, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if libraryPkg {
				if pkgPath, ok := selectorPackage(info, sel); ok && pkgPath == telemetryPath && sel.Sel.Name == "FlightDefault" {
					p.Reportf(x.Pos(),
						"library packages must not touch telemetry.FlightDefault(): flight recorders arrive through explicit plumbing (SetFlight, config fields); only serving binaries own the process ring")
					return true
				}
			}
			if (sel.Sel.Name == "Record" || sel.Sel.Name == "Anomaly") && len(x.Args) > 0 {
				s, ok := info.Selections[sel]
				if !ok || s.Kind() != types.MethodVal {
					return true
				}
				named, isNamed := derefType(s.Recv()).(*types.Named)
				if !isNamed || named.Obj().Name() != "FlightRecorder" || !typeFromPackage(named, telemetryPath) {
					return true
				}
				if tv, ok := info.Types[x.Args[0]]; !ok || tv.Value == nil {
					p.Reportf(x.Args[0].Pos(),
						"flight event kinds must be compile-time constants so the kind set stays enumerable; put the label in a package const and variable payload in the detail argument")
				}
			}
			return true
		})
	}
}
