package analysis

// The interprocedural layer: a lightweight SSA-style program view built
// once per Analyze run and shared by every check (DESIGN.md §8i). It is
// not textbook SSA — no phi nodes, no virtual registers — but it delivers
// the two facilities the interprocedural checks need from one:
//
//   - a function index with resolved call edges: static calls resolve to
//     their one callee, interface calls resolve by class-hierarchy
//     analysis to every in-program method implementing the interface
//     (the callgraph over-approximates here), and calls through stored
//     function values resolve to nothing (it under-approximates there);
//   - per-function effect summaries in program order: which lock classes
//     a function acquires and releases, which operations may block
//     (channel sends/receives, selects without default, net/io calls,
//     WaitGroup/Cond waits), and what is held at each call site —
//     propagated transitively over the callgraph to a fixpoint.
//
// The program is built lazily on first request and cached for the rest
// of the Analyze run, so enabling all three interprocedural checks costs
// one build, not three; the loader tests assert the counter stays at one.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync/atomic"
)

// programBuilds counts Program constructions process-wide. The shared
// -cache regression test asserts one Analyze run with every
// interprocedural check enabled bumps it exactly once.
var programBuilds atomic.Int64

// ProgramBuilds returns how many times an interprocedural program has
// been constructed in this process (test hook for the shared-cache
// invariant).
// Kept: test seam: tests pin one program build per run.
func ProgramBuilds() int64 { return programBuilds.Load() }

// HeldLock is one lock class held at a program point, with the position
// of its acquisition.
type HeldLock struct {
	Class string
	Pos   token.Pos
}

// AcqSite is one lock acquisition: the class acquired, whether it is a
// read lock, and what was already held when it happened.
type AcqSite struct {
	Class string
	Read  bool
	Pos   token.Pos
	Held  []HeldLock
}

// BlockSite is one potentially blocking operation: a channel send or
// receive, a select with no default, a net/io call, or a Wait.
type BlockSite struct {
	Kind string // "channel send", "channel receive", "select", "I/O", "Wait", "sleep"
	Pos  token.Pos
	Held []HeldLock
}

// CallSite is one resolved call: the callees (empty when the target is a
// stored function value or an out-of-program function) and the lock
// classes held at the call.
type CallSite struct {
	Name    string // rendered callee for diagnostics
	Pos     token.Pos
	Held    []HeldLock
	Callees []*FuncInfo
}

// GoSite is one `go` statement: the spawned roots (the literal itself,
// or the resolved callees of the spawned call).
type GoSite struct {
	Pos   token.Pos
	Roots []*FuncInfo
}

// LoopSite is one condition-less `for {}` loop, the only loop shape the
// goroutine-leak check treats as potentially infinite, with the exit
// evidence found inside it.
type LoopSite struct {
	Pos token.Pos
	// Exit is true when the loop body contains a way out: a return, a
	// break that targets this loop, or a select/receive on a recognized
	// termination channel.
	Exit bool
	// DoneSignal is true when the exit evidence includes a termination
	// channel (done/stop/ctx.Done receive) rather than only a
	// data-dependent conditional return.
	DoneSignal bool
}

// FuncInfo is one function or function literal with its extracted
// effects. Summaries (TransAcquires, TransBlock) are filled by the
// fixpoint pass after every function's direct effects are known.
type FuncInfo struct {
	Name string // package-qualified for declarations, "<file:line func literal>" for literals
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Body *ast.BlockStmt
	Pos  token.Pos

	Acquires []AcqSite
	Blocks   []BlockSite
	Calls    []CallSite
	Gos      []GoSite

	// UncondLoops are the condition-less loops of this body with their
	// per-loop exit evidence.
	UncondLoops []LoopSite

	// TransAcquires maps every lock class this function may acquire,
	// directly or transitively, to a human-readable witness chain.
	TransAcquires map[string]string
	// TransBlock is non-empty when this function may block, directly or
	// transitively; it carries the witness chain.
	TransBlock string
}

// Program is the interprocedural view over one Analyze run's packages.
type Program struct {
	Pkgs  []*Package
	Funcs map[types.Object]*FuncInfo // declared functions and methods
	ByPkg map[*Package][]*FuncInfo   // every function (incl. literals), source order

	// closedChans holds the objects (vars and fields) that appear as the
	// argument of a close() call anywhere in the program: receiving from
	// one is a termination signal.
	closedChans map[types.Object]bool

	// methodsByName indexes concrete methods for class-hierarchy
	// resolution of interface calls.
	methodsByName map[string][]*FuncInfo

	// lockorder's shared results, computed once (see lockorder.go).
	lockGraph *lockGraph
}

// Prog returns the shared interprocedural program for this Analyze run,
// building it on first use. Every check that calls Prog within one run
// observes the same instance (the "SSA cache" of DESIGN.md §8i).
func (p *Pass) Prog() *Program {
	if *p.prog == nil {
		*p.prog = buildProgram(p.pkgs)
	}
	return *p.prog
}

// FuncsOf returns every function (declarations and literals) of pkg in
// source order.
func (prog *Program) FuncsOf(pkg *Package) []*FuncInfo { return prog.ByPkg[pkg] }

// buildProgram extracts the function index, call edges and effect
// summaries from the given packages.
func buildProgram(pkgs []*Package) *Program {
	programBuilds.Add(1)
	prog := &Program{
		Pkgs:          pkgs,
		Funcs:         make(map[types.Object]*FuncInfo),
		ByPkg:         make(map[*Package][]*FuncInfo),
		closedChans:   make(map[types.Object]bool),
		methodsByName: make(map[string][]*FuncInfo),
	}
	// Pass 1: index declared functions and collect close() targets, so
	// call resolution and done-channel classification can see the whole
	// program before any body is scanned.
	for _, pkg := range pkgs {
		for _, fd := range pkg.FuncDecls() {
			if fd.Body == nil {
				continue
			}
			obj := pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			name := pkg.Types.Name() + "." + fd.Name.Name
			if fd.Recv != nil {
				if rt := receiverTypeName(fd); rt != "" {
					name = pkg.Types.Name() + "." + rt + "." + fd.Name.Name
				}
			}
			fi := &FuncInfo{Name: name, Pkg: pkg, Decl: fd, Body: fd.Body, Pos: fd.Pos()}
			prog.Funcs[obj] = fi
			prog.ByPkg[pkg] = append(prog.ByPkg[pkg], fi)
			if fd.Recv != nil {
				prog.methodsByName[fd.Name.Name] = append(prog.methodsByName[fd.Name.Name], fi)
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "close" {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					if obj := chanObj(pkg.Info, call.Args[0]); obj != nil {
						prog.closedChans[obj] = true
					}
				}
				return true
			})
		}
	}
	// Pass 2: scan every body (literals are discovered and scanned as
	// they appear), then close the summaries over the callgraph.
	for _, pkg := range pkgs {
		for _, fi := range prog.ByPkg[pkg] {
			if fi.Decl != nil {
				prog.scanFunc(fi)
			}
		}
	}
	prog.closeSummaries()
	return prog
}

// chanObj resolves e to the variable or field object of a channel-typed
// expression, nil when it is not a plain identifier/selector.
func chanObj(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	case *ast.ParenExpr:
		return chanObj(info, x.X)
	}
	return nil
}

// doneNameRE-equivalent: name-based fallback for termination channels.
func doneLikeName(name string) bool {
	lower := strings.ToLower(name)
	for _, w := range []string{"stop", "done", "quit", "close", "exit", "gone"} {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}

// isDoneChan reports whether receiving from e is a termination signal:
// the channel object is close()d somewhere in the program, its name says
// so, or it is ctx.Done().
func (prog *Program) isDoneChan(info *types.Info, e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true // ctx.Done() and conventionally-named accessors
		}
		return false
	}
	obj := chanObj(info, e)
	if obj == nil {
		return false
	}
	return prog.closedChans[obj] || doneLikeName(obj.Name())
}

// scanState carries the in-order walk state through one function body.
type scanState struct {
	prog *Program
	fi   *FuncInfo
	held []HeldLock // acquisition-ordered
}

// scanFunc extracts fi's direct effects with an in-order walk of its
// body. The walk tracks the held-lock set linearly in source order —
// sound for the repo's lock discipline (Lock/defer-Unlock or
// straight-line pairs, enforced by the concurrency check) and documented
// as an over-approximation for branch-local locking.
func (prog *Program) scanFunc(fi *FuncInfo) {
	st := &scanState{prog: prog, fi: fi}
	st.walkStmt(fi.Body)
}

// heldCopy snapshots the current held set.
func (st *scanState) heldCopy() []HeldLock {
	if len(st.held) == 0 {
		return nil
	}
	return append([]HeldLock(nil), st.held...)
}

func (st *scanState) acquire(class string, read bool, pos token.Pos) {
	st.fi.Acquires = append(st.fi.Acquires, AcqSite{Class: class, Read: read, Pos: pos, Held: st.heldCopy()})
	st.held = append(st.held, HeldLock{Class: class, Pos: pos})
}

func (st *scanState) release(class string) {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i].Class == class {
			st.held = append(st.held[:i], st.held[i+1:]...)
			return
		}
	}
}

// lockClassOf renders the static lock class of a mutex operand: the
// owning named type and field for `x.mu`, the package-qualified name for
// a package-level or local mutex variable.
func lockClassOf(pkg *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// x.Sel is the mutex field; qualify it by the owner's named type.
		t := pkg.Info.Types[x.X].Type
		if t != nil {
			if named, ok := derefType(t).(*types.Named); ok {
				owner := named.Obj()
				q := owner.Name()
				if owner.Pkg() != nil {
					q = owner.Pkg().Name() + "." + q
				}
				return q + "." + x.Sel.Name
			}
		}
		return renderExpr(x)
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + x.Name
		}
		return x.Name
	case *ast.ParenExpr:
		return lockClassOf(pkg, x.X)
	}
	return renderExpr(e)
}

// mutexOpOn decodes call as a sync (or lockcheck-wrapped) mutex method
// with one of the given names, returning the receiver expression.
func mutexOpOn(info *types.Info, call *ast.CallExpr, names ...string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return nil, false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return nil, false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil {
		return nil, false
	}
	switch obj.Pkg().Path() {
	case "sync", "bwcluster/internal/lockcheck":
		return sel.X, true
	}
	return nil, false
}

// walkStmt processes one statement (recursing into nested blocks) in
// source order, updating the held set and recording effects.
func (st *scanState) walkStmt(n ast.Node) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.BlockStmt:
		for _, stmt := range s.List {
			st.walkStmt(stmt)
		}
	case *ast.ExprStmt:
		st.walkExpr(s.X)
	case *ast.SendStmt:
		st.walkExpr(s.Chan)
		st.walkExpr(s.Value)
		st.fi.Blocks = append(st.fi.Blocks, BlockSite{Kind: "channel send", Pos: s.Pos(), Held: st.heldCopy()})
	case *ast.GoStmt:
		st.goStmt(s)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// body, which plain (non-releasing) tracking already models; any
		// other deferred call is treated as a call at this point.
		if _, ok := mutexOpOn(st.fi.Pkg.Info, s.Call, "Unlock", "RUnlock"); ok {
			for _, arg := range s.Call.Args {
				st.walkExpr(arg)
			}
			return
		}
		st.callExpr(s.Call, true)
	case *ast.SelectStmt:
		st.selectStmt(s)
	case *ast.RangeStmt:
		st.walkExpr(s.X)
		if t := st.fi.Pkg.Info.Types[s.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				st.fi.Blocks = append(st.fi.Blocks, BlockSite{Kind: "channel receive", Pos: s.Pos(), Held: st.heldCopy()})
			}
		}
		st.walkStmt(s.Body)
	case *ast.IfStmt:
		st.walkStmt(s.Init)
		st.walkExpr(s.Cond)
		st.walkStmt(s.Body)
		st.walkStmt(s.Else)
	case *ast.ForStmt:
		st.walkStmt(s.Init)
		st.walkExpr(s.Cond)
		if s.Cond == nil {
			exit, done := st.prog.stmtExit(st.fi.Pkg, s.Body, true)
			st.fi.UncondLoops = append(st.fi.UncondLoops, LoopSite{Pos: s.Pos(), Exit: exit, DoneSignal: done})
		}
		st.walkStmt(s.Body)
		st.walkStmt(s.Post)
	case *ast.SwitchStmt:
		st.walkStmt(s.Init)
		st.walkExpr(s.Tag)
		st.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		st.walkStmt(s.Init)
		st.walkStmt(s.Assign)
		st.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			st.walkExpr(e)
		}
		for _, stmt := range s.Body {
			st.walkStmt(stmt)
		}
	case *ast.CommClause:
		// Reached only via a non-select path (defensive); selectStmt
		// handles the real ones.
		for _, stmt := range s.Body {
			st.walkStmt(stmt)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			st.walkExpr(e)
		}
		for _, e := range s.Lhs {
			st.walkExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st.walkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st.walkExpr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	case *ast.IncDecStmt:
		st.walkExpr(s.X)
	}
}

// selectStmt records the select's blocking classification and walks the
// clause bodies. A select with a default never blocks; one without may
// block indefinitely, so it is a block site.
func (st *scanState) selectStmt(s *ast.SelectStmt) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		st.fi.Blocks = append(st.fi.Blocks, BlockSite{Kind: "select", Pos: s.Pos(), Held: st.heldCopy()})
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		// Walk nested calls in the channel expression (e.g. ticker.C
		// needs no walk, but f().ch would); the comm receive itself is
		// not an independent blocking op — the select is the unit.
		if recvExpr := commRecvExpr(cc.Comm); recvExpr != nil {
			st.walkExpr(recvExpr)
		}
		for _, stmt := range cc.Body {
			st.walkStmt(stmt)
		}
	}
}

// commRecvExpr extracts the received-from channel expression of a comm
// clause, nil for sends.
func commRecvExpr(s ast.Stmt) ast.Expr {
	switch c := s.(type) {
	case *ast.ExprStmt:
		if u, ok := c.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			if u, ok := c.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

// goStmt registers the spawn site and its root functions. Literal roots
// are scanned as their own functions with an empty held set — a new
// goroutine holds nothing its parent held.
func (st *scanState) goStmt(s *ast.GoStmt) {
	site := GoSite{Pos: s.Pos()}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		site.Roots = append(site.Roots, st.prog.litFunc(st.fi.Pkg, lit))
	} else {
		for _, callee := range st.prog.resolveCallees(st.fi.Pkg, s.Call) {
			site.Roots = append(site.Roots, callee)
		}
	}
	for _, arg := range s.Call.Args {
		st.walkExpr(arg)
	}
	st.fi.Gos = append(st.fi.Gos, site)
}

// litFunc returns (building on first use) the FuncInfo for a function
// literal.
func (prog *Program) litFunc(pkg *Package, lit *ast.FuncLit) *FuncInfo {
	for _, fi := range prog.ByPkg[pkg] {
		if fi.Decl == nil && fi.Pos == lit.Pos() {
			return fi
		}
	}
	pos := pkg.Fset.Position(lit.Pos())
	fi := &FuncInfo{
		Name: fmt.Sprintf("%s func literal at %s:%d", pkg.Types.Name(), shortFile(pos.Filename), pos.Line),
		Pkg:  pkg, Body: lit.Body, Pos: lit.Pos(),
	}
	prog.ByPkg[pkg] = append(prog.ByPkg[pkg], fi)
	prog.scanFunc(fi)
	return fi
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// walkExpr processes one expression in order, recording channel ops,
// mutex ops, calls and nested literals.
func (st *scanState) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		st.callExpr(x, true)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			st.fi.Blocks = append(st.fi.Blocks, BlockSite{Kind: "channel receive", Pos: x.Pos(), Held: st.heldCopy()})
		}
		st.walkExpr(x.X)
	case *ast.FuncLit:
		// A literal not spawned via `go` still gets its own FuncInfo; if
		// it is immediately invoked the enclosing CallExpr records the
		// call edge.
		st.prog.litFunc(st.fi.Pkg, x)
	case *ast.BinaryExpr:
		st.walkExpr(x.X)
		st.walkExpr(x.Y)
	case *ast.ParenExpr:
		st.walkExpr(x.X)
	case *ast.SelectorExpr:
		st.walkExpr(x.X)
	case *ast.IndexExpr:
		st.walkExpr(x.X)
		st.walkExpr(x.Index)
	case *ast.SliceExpr:
		st.walkExpr(x.X)
		st.walkExpr(x.Low)
		st.walkExpr(x.High)
		st.walkExpr(x.Max)
	case *ast.StarExpr:
		st.walkExpr(x.X)
	case *ast.TypeAssertExpr:
		st.walkExpr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			st.walkExpr(el)
		}
	case *ast.KeyValueExpr:
		st.walkExpr(x.Value)
	}
}

// stdBlocking classifies calls into out-of-program code that can block:
// network and stream I/O, WaitGroup/Cond waits, and sleeps.
func stdBlocking(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkgPath, ok := selectorPackage(info, sel); ok {
		switch pkgPath {
		case "io":
			switch sel.Sel.Name {
			case "ReadFull", "ReadAll", "Copy", "CopyN", "WriteString":
				return "I/O", true
			}
		case "net":
			switch sel.Sel.Name {
			case "Dial", "DialTimeout", "Listen":
				return "I/O", true
			}
		case "time":
			if sel.Sel.Name == "Sleep" {
				return "sleep", true
			}
		}
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	switch obj.Pkg().Path() {
	case "sync":
		if sel.Sel.Name == "Wait" {
			return "Wait", true
		}
	case "net":
		switch sel.Sel.Name {
		case "Read", "Write", "Accept":
			return "I/O", true
		}
	}
	return "", false
}

// callExpr handles one call: mutex ops mutate the held set, resolvable
// calls become call sites, known std blockers become block sites.
func (st *scanState) callExpr(call *ast.CallExpr, walkFun bool) {
	info := st.fi.Pkg.Info
	if recv, ok := mutexOpOn(info, call, "Lock", "RLock"); ok {
		sel := call.Fun.(*ast.SelectorExpr)
		st.acquire(lockClassOf(st.fi.Pkg, recv), sel.Sel.Name == "RLock", call.Pos())
		return
	}
	if recv, ok := mutexOpOn(info, call, "Unlock", "RUnlock"); ok {
		st.release(lockClassOf(st.fi.Pkg, recv))
		return
	}
	if kind, ok := stdBlocking(info, call); ok {
		st.fi.Blocks = append(st.fi.Blocks, BlockSite{Kind: kind, Pos: call.Pos(), Held: st.heldCopy()})
	}
	// Immediately-invoked literal: an ordinary call edge into it.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		st.fi.Calls = append(st.fi.Calls, CallSite{
			Name: "func literal", Pos: call.Pos(), Held: st.heldCopy(),
			Callees: []*FuncInfo{st.prog.litFunc(st.fi.Pkg, lit)},
		})
	} else if callees := st.prog.resolveCallees(st.fi.Pkg, call); len(callees) > 0 {
		st.fi.Calls = append(st.fi.Calls, CallSite{
			Name: renderExpr(call.Fun), Pos: call.Pos(), Held: st.heldCopy(), Callees: callees,
		})
	}
	if walkFun {
		// Visit nested calls/literals in the function expression and
		// arguments (skip for `go`/`defer`, whose caller walks args).
		if _, isLit := call.Fun.(*ast.FuncLit); !isLit {
			st.walkExpr(call.Fun)
		}
		for _, arg := range call.Args {
			st.walkExpr(arg)
		}
	}
}

// resolveCallees maps a call expression to its possible in-program
// callees: one for a static function or concrete-method call, every
// implementing method for an interface call (class-hierarchy analysis),
// none for function values.
func (prog *Program) resolveCallees(pkg *Package, call *ast.CallExpr) []*FuncInfo {
	info := pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if fi := prog.Funcs[types.Object(fn)]; fi != nil {
				return []*FuncInfo{fi}
			}
		}
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[fun]; ok && selection.Kind() == types.MethodVal {
			recv := selection.Recv()
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				return prog.implementations(recv.Underlying().(*types.Interface), fun.Sel.Name)
			}
			if fn, ok := selection.Obj().(*types.Func); ok {
				if fi := prog.Funcs[types.Object(fn)]; fi != nil {
					return []*FuncInfo{fi}
				}
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if fi := prog.Funcs[types.Object(fn)]; fi != nil {
				return []*FuncInfo{fi}
			}
		}
	}
	return nil
}

// implementations returns every in-program concrete method with the
// given name whose receiver type implements iface.
func (prog *Program) implementations(iface *types.Interface, method string) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range prog.methodsByName[method] {
		obj := fi.Pkg.Info.Defs[fi.Decl.Name]
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(derefType(rt)), iface) {
			out = append(out, fi)
		}
	}
	return out
}

// stmtExit scans a condition-less loop's body for ways out. exit is true
// when the subtree contains a return, or a break that targets the loop
// (breakable tracks whether an unlabeled break at this nesting level
// still does — it stops doing so inside a nested loop, select or
// switch). done is true when the subtree receives from a recognized
// termination channel (closed in-program, done/stop-named, or a Done()
// accessor) — the "tied to a context/done-channel/Close" evidence the
// goroutine-leak check prefers to see. Function literals are opaque:
// their returns do not exit this loop.
func (prog *Program) stmtExit(pkg *Package, s ast.Stmt, breakable bool) (exit, done bool) {
	merge := func(e, d bool) { exit = exit || e; done = done || d }
	body := func(stmts []ast.Stmt, breakable bool) {
		for _, st := range stmts {
			merge(prog.stmtExit(pkg, st, breakable))
		}
	}
	recvDone := func(e ast.Expr) bool {
		u, ok := e.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW && prog.isDoneChan(pkg.Info, u.X)
	}
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true, false
	case *ast.BranchStmt:
		if x.Tok == token.BREAK && (breakable || x.Label != nil) {
			return true, false
		}
	case *ast.BlockStmt:
		body(x.List, breakable)
	case *ast.IfStmt:
		merge(prog.stmtExit(pkg, x.Body, breakable))
		if x.Else != nil {
			merge(prog.stmtExit(pkg, x.Else, breakable))
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if recvExpr := commRecvExpr(cc.Comm); recvExpr != nil && prog.isDoneChan(pkg.Info, recvExpr) {
				done = true
			}
			body(cc.Body, false)
		}
	case *ast.SwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				body(cc.Body, false)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				body(cc.Body, false)
			}
		}
	case *ast.ForStmt:
		merge(prog.stmtExit(pkg, x.Body, false))
	case *ast.RangeStmt:
		merge(prog.stmtExit(pkg, x.Body, false))
	case *ast.LabeledStmt:
		merge(prog.stmtExit(pkg, x.Stmt, breakable))
	case *ast.ExprStmt:
		if recvDone(x.X) {
			done = true
		}
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			if recvDone(r) {
				done = true
			}
		}
	}
	return
}

// closeSummaries propagates acquire and block effects over the callgraph
// to a fixpoint.
func (prog *Program) closeSummaries() {
	var all []*FuncInfo
	for _, pkg := range prog.Pkgs {
		all = append(all, prog.ByPkg[pkg]...)
	}
	for _, fi := range all {
		fi.TransAcquires = make(map[string]string)
		for _, a := range fi.Acquires {
			if _, ok := fi.TransAcquires[a.Class]; !ok {
				fi.TransAcquires[a.Class] = fi.Name
			}
		}
		for _, b := range fi.Blocks {
			if fi.TransBlock == "" {
				fi.TransBlock = fmt.Sprintf("%s (%s at %s)", fi.Name, b.Kind, posString(fi.Pkg, b.Pos))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range all {
			for _, c := range fi.Calls {
				for _, callee := range c.Callees {
					for class, chain := range callee.TransAcquires {
						if _, ok := fi.TransAcquires[class]; !ok {
							fi.TransAcquires[class] = fi.Name + " → " + chain
							changed = true
						}
					}
					if callee.TransBlock != "" && fi.TransBlock == "" {
						fi.TransBlock = fi.Name + " → " + callee.TransBlock
						changed = true
					}
				}
			}
		}
	}
}

// posString renders pos as file:line relative to the package directory.
func posString(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
}

// transitiveSet returns roots plus every function statically reachable
// from them.
func transitiveSet(roots []*FuncInfo) []*FuncInfo {
	seen := make(map[*FuncInfo]bool)
	var out []*FuncInfo
	var visit func(fi *FuncInfo)
	visit = func(fi *FuncInfo) {
		if fi == nil || seen[fi] {
			return
		}
		seen[fi] = true
		out = append(out, fi)
		for _, c := range fi.Calls {
			for _, callee := range c.Callees {
				visit(callee)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return out
}

// sortedClasses returns the lock classes of held in a stable order for
// messages.
func sortedClasses(held []HeldLock) []string {
	out := make([]string, len(held))
	for i, h := range held {
		out[i] = h.Class
	}
	sort.Strings(out)
	return out
}
