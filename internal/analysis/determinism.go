package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runDeterminism enforces the seed-determinism invariant inside the
// algorithm packages: for a fixed seed every build and query must be
// bit-identical at any worker count, so algorithm code may not read wall
// clocks (except to feed telemetry), may not draw from the global
// math/rand stream (an explicit seeded *rand.Rand is required), and may
// not let map iteration order leak into a slice that escapes the
// function without being sorted first.
//
// I/O packages (ioPackages) get the same check minus the
// wall-clock rule: a transport legitimately reads clocks for deadlines
// and reconnect backoff, but its injected-fault schedule must still be a
// pure function of an explicit seed, so the global-rand and
// map-order-leak rules stay in force.
func runDeterminism(p *Pass) {
	if !inScope("determinism", p.Pkg) {
		return
	}
	io := ioPackage(p.Pkg)
	for _, f := range p.Pkg.Files {
		checkGlobalRand(p, f)
	}
	for _, fn := range p.Pkg.FuncDecls() {
		if fn.Body == nil {
			continue
		}
		if !io {
			checkWallClock(p, fn)
		}
		checkMapOrderLeak(p, fn)
	}
}

// randConstructors are the math/rand package-level functions that build
// an explicit source rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// checkGlobalRand flags calls to math/rand (and math/rand/v2) top-level
// functions other than the source constructors: Intn, Float64, Perm,
// Shuffle and friends all read the process-global stream, whose state
// depends on every other caller in the binary.
func checkGlobalRand(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := selectorPackage(p.Pkg.Info, sel)
		if !ok || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") {
			return true
		}
		if randConstructors[sel.Sel.Name] {
			return true
		}
		noun := "algorithm"
		if ioPackage(p.Pkg) {
			noun = "I/O"
		}
		p.Reportf(call.Pos(),
			"%s package calls global rand.%s; draw from an explicit seeded *rand.Rand so results are reproducible", noun, sel.Sel.Name)
		return true
	})
}

// checkWallClock flags time.Now and time.Since calls whose results do
// anything other than feed telemetry. A call is telemetry-exempt when it
// is lexically inside the arguments of a telemetry call, or when it
// initializes a variable whose every use flows into telemetry arguments
// (the `start := time.Now(); …; m.Observe(time.Since(start))` idiom).
func checkWallClock(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := selectorPackage(info, sel)
		if !ok || pkgPath != "time" || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
			return true
		}
		if telemetrySunk(p, fn.Body, call) {
			return true
		}
		p.Reportf(call.Pos(),
			"algorithm package reads the wall clock (time.%s) outside a telemetry call site; clocks are nondeterministic across runs", sel.Sel.Name)
		return true
	})
}

// telemetrySunk reports whether the given time.Now/time.Since call only
// feeds telemetry within body.
func telemetrySunk(p *Pass, body *ast.BlockStmt, call *ast.CallExpr) bool {
	path := pathEnclosing(fileOf(p, call.Pos()), call.Pos())
	if insideTelemetryArgs(p, path, call) {
		return true
	}
	// `v := time.Now()`: exempt when every use of v is inside telemetry
	// arguments (directly or via time.Since(v)/x.Sub(v)).
	obj := assignedObject(p.Pkg.Info, path, call)
	if obj == nil {
		return false
	}
	used := false
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || p.Pkg.Info.Uses[id] != obj {
			return true
		}
		used = true
		upath := pathEnclosing(fileOf(p, id.Pos()), id.Pos())
		if !insideTelemetryArgs(p, upath, id) {
			ok = false
		}
		return true
	})
	return used && ok
}

// insideTelemetryArgs reports whether node sits inside the argument list
// of a call into the telemetry package (a package function like
// StartSpan, or a method on a telemetry-declared type like
// Histogram.Observe or Span.SetAttr). path is innermost-first.
func insideTelemetryArgs(p *Pass, path []ast.Node, node ast.Node) bool {
	for _, anc := range path {
		call, ok := anc.(*ast.CallExpr)
		if !ok || call == node {
			continue
		}
		inArgs := false
		for _, arg := range call.Args {
			if arg.Pos() <= node.Pos() && node.End() <= arg.End() {
				inArgs = true
				break
			}
		}
		if inArgs && isTelemetryCall(p, call) {
			return true
		}
	}
	return false
}

// isTelemetryCall reports whether call invokes the telemetry package —
// either one of its package-level functions or a method whose receiver
// type is declared there.
func isTelemetryCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkgPath, ok := selectorPackage(p.Pkg.Info, sel); ok {
		return pkgPath == telemetryPath
	}
	if selection, ok := p.Pkg.Info.Selections[sel]; ok {
		if named, ok := derefType(selection.Recv()).(*types.Named); ok {
			if tp := named.Obj().Pkg(); tp != nil && tp.Path() == telemetryPath {
				return true
			}
		}
	}
	return false
}

// assignedObject returns the object initialized from call when the
// innermost enclosing statement is `v := call` or `var v = call`, else
// nil. path is innermost-first.
func assignedObject(info *types.Info, path []ast.Node, call *ast.CallExpr) types.Object {
	for _, anc := range path {
		switch st := anc.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 && st.Rhs[0] == call {
				if id, ok := st.Lhs[0].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						return obj
					}
				}
			}
			return nil
		case *ast.ValueSpec:
			if len(st.Names) == 1 && len(st.Values) == 1 && st.Values[0] == call {
				return info.Defs[st.Names[0]]
			}
			return nil
		case *ast.BlockStmt, *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

// checkMapOrderLeak flags `for … range m` over a map whose body appends
// to a slice that escapes the function (returned, stored in a field or
// element, or package-level) without the function sorting that slice
// after the loop: the element order then depends on Go's randomized map
// iteration and differs run to run.
func checkMapOrderLeak(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, tgt := range appendTargets(info, rng.Body) {
			if !escapes(info, fn, tgt) {
				continue
			}
			if sortedAfter(info, fn.Body, rng.End(), tgt) {
				continue
			}
			p.Reportf(rng.Pos(),
				"map iteration order leaks: range over map appends to %q, which escapes this function unsorted; sort it (or iterate sorted keys)", tgt.name)
		}
		return true
	})
}

// appendTarget is one `x = append(x, …)` destination found in a map
// range body.
type appendTarget struct {
	name string       // rendered name for diagnostics
	obj  types.Object // non-nil for plain identifiers
	sel  *ast.SelectorExpr
}

// appendTargets finds the distinct destinations of append calls in body.
func appendTargets(info *types.Info, body *ast.BlockStmt) []appendTarget {
	var out []appendTarget
	seen := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "append" || info.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			if i >= len(asg.Lhs) {
				continue
			}
			switch lhs := asg.Lhs[i].(type) {
			case *ast.Ident:
				obj := info.Uses[lhs]
				if obj == nil {
					obj = info.Defs[lhs]
				}
				if obj != nil && !seen[obj] {
					seen[obj] = true
					out = append(out, appendTarget{name: lhs.Name, obj: obj})
				}
			case *ast.SelectorExpr:
				out = append(out, appendTarget{name: renderExpr(lhs), sel: lhs})
			}
		}
		return true
	})
	return out
}

// escapes reports whether the append target leaves the function: it is a
// field or element (selector), a package-level variable, a named result,
// or appears in a return statement.
func escapes(info *types.Info, fn *ast.FuncDecl, tgt appendTarget) bool {
	if tgt.sel != nil {
		return true
	}
	if tgt.obj == nil {
		return false
	}
	// Package-level variable.
	if tgt.obj.Parent() == tgt.obj.Pkg().Scope() {
		return true
	}
	// Named result parameter.
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			for _, name := range field.Names {
				if info.Defs[name] == tgt.obj {
					return true
				}
			}
		}
	}
	returned := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == tgt.obj {
					returned = true
				}
				return true
			})
		}
		return true
	})
	return returned
}

// sortedAfter reports whether, lexically after pos, the function calls a
// sort/slices sorting function with the target as an argument (or as the
// receiver slice of sort.Slice).
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, tgt appendTarget) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := selectorPackage(info, sel)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if argMatchesTarget(info, arg, tgt) {
				found = true
			}
		}
		return true
	})
	return found
}

func argMatchesTarget(info *types.Info, arg ast.Expr, tgt appendTarget) bool {
	switch a := arg.(type) {
	case *ast.Ident:
		return tgt.obj != nil && info.Uses[a] == tgt.obj
	case *ast.SelectorExpr:
		return tgt.sel != nil && renderExpr(a) == tgt.name
	}
	return false
}
