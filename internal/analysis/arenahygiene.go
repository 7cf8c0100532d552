package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runArenaHygiene enforces the flat-memory invariant of the hot-path
// packages (DESIGN.md §8g): node state lives in index-addressed arenas
// (int32 IDs into contiguous slices), not in webs of individually
// heap-allocated node objects or integer-keyed maps. Concretely it
// reports, inside the configured flat packages only:
//
//  1. struct fields whose type points (directly or through a slice,
//     array, map or channel) at a package-local struct that can point
//     back — a pointer cycle is the signature of a linked node web, the
//     representation the arena refactor removed;
//  2. allocation sites (&T{...}, new(T)) of such cycle-participating
//     node types — one heap object per node is exactly the allocation
//     pattern the arenas exist to avoid;
//  3. struct fields holding integer-keyed maps — per-host and per-node
//     state in the flat packages is dense (host IDs are small and
//     contiguous), so a map[int]V field is a dense slice wearing a
//     hash-table coat. Transient integer-keyed maps in function bodies
//     are fine; only persistent (field) state is constrained;
//  4. any allocation — &T{...}, new(T), make(map...) — inside a function
//     whose doc comment carries a //bwcvet:hotpath marker: such a
//     function declares itself allocation-free by contract (it runs on a
//     per-tick or per-message path), so it must work in caller-provided
//     buffers and arena free-lists.
func runArenaHygiene(p *Pass) {
	if !inScope("arenahygiene", p.Pkg) {
		return
	}
	checkHotpathFuncs(p)
	reach := pointerReach(p.Pkg.Types)
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				if !ok {
					return true
				}
				obj, ok := info.Defs[x.Name].(*types.TypeName)
				if !ok {
					return true
				}
				from, ok := obj.Type().(*types.Named)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					ft := info.Types[field.Type].Type
					if ft == nil {
						continue
					}
					for _, target := range pointerTargets(ft, p.Pkg.Types) {
						if reach[target][from] {
							p.Reportf(field.Pos(),
								"field type %s links %s into a pointer-connected node web (%s -> %s -> %s); flat hot-path packages keep nodes in index-addressed arenas — int32 IDs into contiguous slices (DESIGN.md §8g)",
								types.TypeString(ft, types.RelativeTo(p.Pkg.Types)),
								from.Obj().Name(), from.Obj().Name(), target.Obj().Name(), from.Obj().Name())
							break
						}
					}
					if key := intKeyedMap(ft); key != "" {
						p.Reportf(field.Pos(),
							"integer-keyed map field (%s): per-host state in flat hot-path packages must be a dense slice indexed by host/node ID, not a map (DESIGN.md §8g)",
							types.TypeString(ft, types.RelativeTo(p.Pkg.Types)))
					}
				}
			case *ast.UnaryExpr:
				if x.Op != token.AND {
					return true
				}
				cl, ok := x.X.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if named := webbedStruct(info.Types[cl].Type, p.Pkg.Types, reach); named != nil {
					p.Reportf(x.Pos(),
						"allocates %s, a node in a pointer-connected web: flat hot-path packages allocate nodes from index-addressed arenas, not one heap object per node (DESIGN.md §8g)",
						named.Obj().Name())
				}
			case *ast.CallExpr:
				id, ok := x.Fun.(*ast.Ident)
				if !ok || id.Name != "new" || len(x.Args) != 1 {
					return true
				}
				if _, ok := info.Uses[id].(*types.Builtin); !ok {
					return true
				}
				if named := webbedStruct(info.Types[x.Args[0]].Type, p.Pkg.Types, reach); named != nil {
					p.Reportf(x.Pos(),
						"allocates %s, a node in a pointer-connected web: flat hot-path packages allocate nodes from index-addressed arenas, not one heap object per node (DESIGN.md §8g)",
						named.Obj().Name())
				}
			}
			return true
		})
	}
}

// checkHotpathFuncs reports allocation sites inside functions marked
// //bwcvet:hotpath. The marker is a contract, not a suppression: the
// function promises to be allocation-free (verified by
// testing.AllocsPerRun where practical), and the check keeps later edits
// from quietly breaking the promise.
func checkHotpathFuncs(p *Pass) {
	info := p.Pkg.Info
	for _, fd := range p.Pkg.FuncDecls() {
		if fd.Doc == nil || fd.Body == nil {
			continue
		}
		marked := false
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, "//bwcvet:hotpath") {
				marked = true
				break
			}
		}
		if !marked {
			continue
		}
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.UnaryExpr:
				if x.Op != token.AND {
					return true
				}
				if _, ok := x.X.(*ast.CompositeLit); ok {
					p.Reportf(x.Pos(),
						"&-literal allocation inside //bwcvet:hotpath function %s: hot-path functions are allocation-free by contract — use caller-provided buffers or arena free-lists", name)
				}
			case *ast.CallExpr:
				id, ok := x.Fun.(*ast.Ident)
				if !ok {
					return true
				}
				if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				switch {
				case id.Name == "new" && len(x.Args) == 1:
					p.Reportf(x.Pos(),
						"new() allocation inside //bwcvet:hotpath function %s: hot-path functions are allocation-free by contract — use caller-provided buffers or arena free-lists", name)
				case id.Name == "make" && len(x.Args) >= 1:
					if t := info.Types[x.Args[0]].Type; t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							p.Reportf(x.Pos(),
								"make(map) allocation inside //bwcvet:hotpath function %s: hot-path functions are allocation-free by contract — keep dense per-host state in reused slices", name)
						}
					}
				}
			}
			return true
		})
	}
}

// pointerReach builds the transitive pointer-containment relation over
// the package's named struct types: reach[u][t] is true when a value of
// u can lead, following any chain of pointer fields (possibly through
// slices, arrays, maps or channels), to a value of t. A field of t
// pointing at u with reach[u][t] therefore closes a cycle through t.
func pointerReach(pkg *types.Package) map[*types.Named]map[*types.Named]bool {
	scope := pkg.Scope()
	var nodes []*types.Named
	edges := make(map[*types.Named][]*types.Named)
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		nodes = append(nodes, named)
		for i := 0; i < st.NumFields(); i++ {
			edges[named] = append(edges[named], pointerTargets(st.Field(i).Type(), pkg)...)
		}
	}
	reach := make(map[*types.Named]map[*types.Named]bool, len(nodes))
	for _, start := range nodes {
		seen := make(map[*types.Named]bool)
		stack := append([]*types.Named(nil), edges[start]...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			stack = append(stack, edges[cur]...)
		}
		reach[start] = seen
	}
	return reach
}

// pointerTargets lists the package-local named struct types that t holds
// a pointer to, looking through slices, arrays, maps, channels and
// anonymous structs. Named types other than the pointed-at structs are
// not traversed: transitivity is the reachability computation's job.
func pointerTargets(t types.Type, pkg *types.Package) []*types.Named {
	var out []*types.Named
	switch u := t.(type) {
	case *types.Pointer:
		if named, ok := u.Elem().(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct && named.Obj().Pkg() == pkg {
				out = append(out, named)
			}
		}
	case *types.Slice:
		out = append(out, pointerTargets(u.Elem(), pkg)...)
	case *types.Array:
		out = append(out, pointerTargets(u.Elem(), pkg)...)
	case *types.Map:
		out = append(out, pointerTargets(u.Key(), pkg)...)
		out = append(out, pointerTargets(u.Elem(), pkg)...)
	case *types.Chan:
		out = append(out, pointerTargets(u.Elem(), pkg)...)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			out = append(out, pointerTargets(u.Field(i).Type(), pkg)...)
		}
	}
	return out
}

// webbedStruct returns the named struct behind t (looking through one
// pointer) when it participates in a pointer cycle, else nil.
func webbedStruct(t types.Type, pkg *types.Package, reach map[*types.Named]map[*types.Named]bool) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pkg {
		return nil
	}
	if reach[named][named] {
		return named
	}
	return nil
}

// intKeyedMap reports (as a short key-type name) whether t is a map
// keyed by an integer type, else "".
func intKeyedMap(t types.Type) string {
	m, ok := t.(*types.Map)
	if !ok {
		return ""
	}
	basic, ok := m.Key().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return ""
	}
	return basic.Name()
}
