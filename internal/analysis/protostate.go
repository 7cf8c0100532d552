package analysis

// The protostate check (DESIGN.md §8i): the wire protocol's state space
// must be handled exhaustively. Three rules, scoped to the protocol
// packages (transport defines the schema, runtime dispatches on it):
//
//  1. Every switch over an integer enum type — a named type with two or
//     more package-level constants, like transport.Kind — that has no
//     default clause must cover every declared constant. Adding a Kind
//     and forgetting a dispatch arm becomes a lint error instead of a
//     silently dropped message in a soak run.
//  2. If a package declares both Message and wireMessage, the lean wire
//     schema must carry exactly the non-trace, non-snapshot fields of
//     Message — a new payload field that misses the lean frame would
//     vanish on every untraced TCP hop. Trace and snapshot state ride
//     dedicated frame tags (frameTraced, frameSnapshot) precisely so
//     their gob type descriptors stay off the per-tick gossip frames,
//     so those fields are exempt in both directions.
//  3. Message.clone must mention every reference field (pointer, slice,
//     map) of Message: a field it skips stays aliased between duplicate
//     deliveries, the exact bug class PR 4 fixed by introducing clone.
//
// The enum-constant enumeration reads the defining package's type
// information, so runtime's switches over transport.Kind are checked
// without transport being among the analyzed packages.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

func runProtoState(p *Pass) {
	if !inScope("protostate", p.Pkg) {
		return
	}
	checkKindSwitches(p)
	checkWireParity(p)
	checkCloneCompleteness(p)
}

// enumConstants returns the package-level constants of exactly the named
// type, grouped by value (aliases count once), with names sorted for
// stable messages.
func enumConstants(named *types.Named) map[string][]string {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	byValue := make(map[string][]string)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v := c.Val().ExactString()
		byValue[v] = append(byValue[v], name)
	}
	for _, names := range byValue {
		sort.Strings(names)
	}
	return byValue
}

// checkKindSwitches enforces rule 1 on every switch in the package.
func checkKindSwitches(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.SwitchStmt)
			if !ok || s.Tag == nil {
				return true
			}
			t := p.Pkg.Info.Types[s.Tag].Type
			named, ok := t.(*types.Named)
			if !ok {
				return true
			}
			basic, ok := named.Underlying().(*types.Basic)
			if !ok || basic.Info()&types.IsInteger == 0 {
				return true
			}
			byValue := enumConstants(named)
			if len(byValue) < 2 {
				return true
			}
			covered := make(map[string]bool)
			hasDefault := false
			for _, c := range s.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if tv := p.Pkg.Info.Types[e]; tv.Value != nil {
						covered[tv.Value.ExactString()] = true
					}
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for v, names := range byValue {
				if !covered[v] {
					missing = append(missing, names[0])
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				typeName := named.Obj().Name()
				if named.Obj().Pkg() != nil {
					typeName = named.Obj().Pkg().Name() + "." + typeName
				}
				p.Reportf(s.Pos(), "switch over %s is not exhaustive: missing %s; handle every constant or add an explicit default",
					typeName, strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// isDedicatedFrameField reports whether the field rides only on a
// dedicated frame tag and is therefore exempt from lean-frame parity:
// its type names a Trace struct (TraceContext, TraceEvent — frameTraced)
// or the Snapshot chunk struct (frameSnapshot).
func isDedicatedFrameField(t types.Type) bool {
	named, ok := derefType(t).(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return strings.Contains(name, "Trace") || strings.Contains(name, "Snapshot")
}

// lookupStruct finds a package-level struct type by name.
func lookupStruct(pkg *Package, name string) (types.Object, *types.Struct) {
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		return nil, nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return obj, st
}

// checkWireParity enforces rule 2: wireMessage mirrors Message's
// non-trace fields exactly, in both directions.
func checkWireParity(p *Pass) {
	_, msg := lookupStruct(p.Pkg, "Message")
	wireObj, wire := lookupStruct(p.Pkg, "wireMessage")
	if msg == nil || wire == nil {
		return
	}
	wireFields := make(map[string]bool, wire.NumFields())
	for i := 0; i < wire.NumFields(); i++ {
		wireFields[wire.Field(i).Name()] = true
	}
	msgFields := make(map[string]bool, msg.NumFields())
	for i := 0; i < msg.NumFields(); i++ {
		f := msg.Field(i)
		msgFields[f.Name()] = true
		if isDedicatedFrameField(f.Type()) {
			continue
		}
		if !wireFields[f.Name()] {
			p.Reportf(wireObj.Pos(), "wire schema wireMessage is missing non-trace Message field %s: it would be dropped on every untraced frame", f.Name())
		}
	}
	for i := 0; i < wire.NumFields(); i++ {
		if name := wire.Field(i).Name(); !msgFields[name] {
			p.Reportf(wireObj.Pos(), "wireMessage field %s does not exist in Message: the schemas have drifted apart", name)
		}
	}
}

// checkCloneCompleteness enforces rule 3: Message.clone mentions every
// reference field.
func checkCloneCompleteness(p *Pass) {
	_, msg := lookupStruct(p.Pkg, "Message")
	if msg == nil {
		return
	}
	var clone *ast.FuncDecl
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Name.Name == "clone" && receiverTypeName(fd) == "Message" {
				clone = fd
			}
		}
	}
	if clone == nil || clone.Body == nil {
		return
	}
	mentioned := make(map[string]bool)
	ast.Inspect(clone.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			mentioned[id.Name] = true
		}
		return true
	})
	var missing []string
	for i := 0; i < msg.NumFields(); i++ {
		f := msg.Field(i)
		switch f.Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
			if !mentioned[f.Name()] {
				missing = append(missing, fmt.Sprintf("%s (%s)", f.Name(), f.Type()))
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		p.Reportf(clone.Pos(), "Message.clone does not copy reference field(s) %s: a duplicated delivery would alias mutable state with the original",
			strings.Join(missing, ", "))
	}
}
