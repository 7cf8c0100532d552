package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// runConcurrency enforces the repo's lock discipline: a Lock() that is
// not immediately deferred must not have an early return between it and
// its Unlock() (the classic leaked-lock bug), and struct fields whose
// comment declares "guarded by <mu>" may only be touched by methods that
// actually take that mutex (or are *Locked helpers whose caller holds
// it).
func runConcurrency(p *Pass) {
	if !inScope("concurrency", p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		checkLockDiscipline(p, f)
	}
	checkGuardedFields(p)
}

// lockCall describes one mutex operation: the rendered receiver
// expression ("rt.mu") and whether it is a read lock.
type lockCall struct {
	recv string
	read bool
	call *ast.CallExpr
}

// asLockCall decodes stmt as a sync.Mutex/RWMutex Lock or RLock call.
func asLockCall(info *types.Info, stmt ast.Stmt) (lockCall, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return lockCall{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return lockCall{}, false
	}
	return asMutexOp(info, call, "Lock", "RLock")
}

// asMutexOp decodes call as one of the named methods on a sync mutex
// (directly or through embedding).
func asMutexOp(info *types.Info, call *ast.CallExpr, names ...string) (lockCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return lockCall{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return lockCall{}, false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return lockCall{}, false
	}
	return lockCall{recv: renderExpr(sel.X), read: sel.Sel.Name[0] == 'R', call: call}, true
}

// checkLockDiscipline walks every function looking for Lock() calls that
// are neither immediately deferred nor straight-line paired with their
// Unlock().
func checkLockDiscipline(p *Pass, f *ast.File) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if n != body {
				// Nested function literals are visited on their own.
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
			}
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				lc, ok := asLockCall(info, stmt)
				if !ok {
					continue
				}
				if deferredUnlockFollows(info, block.List[i+1:], lc) {
					continue
				}
				reportLeakedLock(p, body, lc)
			}
			return true
		})
		return false
	})
}

// deferredUnlockFollows reports whether the statement immediately after
// the lock is `defer recv.Unlock()` (or RUnlock for a read lock).
func deferredUnlockFollows(info *types.Info, rest []ast.Stmt, lc lockCall) bool {
	if len(rest) == 0 {
		return false
	}
	def, ok := rest[0].(*ast.DeferStmt)
	if !ok {
		return false
	}
	want := "Unlock"
	if lc.read {
		want = "RUnlock"
	}
	op, ok := asMutexOp(info, def.Call, want)
	return ok && op.recv == lc.recv
}

// reportLeakedLock flags the lock when a return statement sits between
// it and the last matching manual unlock in the function body: on that
// return path the mutex is never released.
func reportLeakedLock(p *Pass, body *ast.BlockStmt, lc lockCall) {
	want := "Unlock"
	if lc.read {
		want = "RUnlock"
	}
	lastUnlock := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= lc.call.End() {
			return true
		}
		if op, ok := asMutexOp(p.Pkg.Info, call, want); ok && op.recv == lc.recv {
			if call.Pos() > lastUnlock {
				lastUnlock = call.Pos()
			}
		}
		return true
	})
	if lastUnlock == token.NoPos {
		// No unlock in this function at all: lock handoff across
		// functions is a deliberate (if rare) pattern; stay quiet.
		return
	}
	leaked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			if ret.Pos() > lc.call.End() && ret.Pos() < lastUnlock {
				leaked = true
			}
		}
		return true
	})
	if leaked {
		p.Reportf(lc.call.Pos(),
			"%s.%s is released manually but a return between it and %s.%s leaks the lock; use `defer %s.%s()`",
			lc.recv, lockName(lc), lc.recv, want, lc.recv, want)
	}
}

func lockName(lc lockCall) string {
	if lc.read {
		return "RLock"
	}
	return "Lock"
}

var guardedRE = regexp.MustCompile(`(?i)guarded by\s+([A-Za-z_][A-Za-z0-9_]*)`)

// guardedField is one struct field documented "guarded by <mu>".
type guardedField struct {
	structName string
	fieldName  string
	mutexName  string
	pos        token.Pos
}

// checkGuardedFields cross-references every `// guarded by mu` field
// comment against the methods of its struct: a method that touches the
// field without locking mu (and is not a *Locked helper) is reported.
func checkGuardedFields(p *Pass) {
	var guarded []guardedField
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				var m []string
				if field.Comment != nil {
					m = guardedRE.FindStringSubmatch(field.Comment.Text())
				}
				if m == nil && field.Doc != nil {
					m = guardedRE.FindStringSubmatch(field.Doc.Text())
				}
				if m == nil {
					continue
				}
				for _, name := range field.Names {
					guarded = append(guarded, guardedField{
						structName: ts.Name.Name, fieldName: name.Name,
						mutexName: m[1], pos: name.Pos(),
					})
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return
	}
	for _, fn := range p.Pkg.FuncDecls() {
		if fn.Body == nil || fn.Recv == nil {
			continue
		}
		recvType := receiverTypeName(fn)
		recvName := ""
		if len(fn.Recv.List[0].Names) > 0 {
			recvName = fn.Recv.List[0].Names[0].Name
		}
		if recvName == "" || recvName == "_" {
			continue
		}
		for _, g := range guarded {
			if g.structName != recvType {
				continue
			}
			checkGuardedAccess(p, fn, recvName, g)
		}
	}
}

// checkGuardedAccess reports unlocked accesses of one guarded field in
// one method.
func checkGuardedAccess(p *Pass, fn *ast.FuncDecl, recvName string, g guardedField) {
	if accessPos := fieldAccess(p, fn, recvName, g.fieldName); accessPos != token.NoPos {
		if methodLocks(p, fn, recvName, g.mutexName) {
			return
		}
		// The *Locked suffix is the repo's caller-holds-lock convention.
		if len(fn.Name.Name) > 6 && fn.Name.Name[len(fn.Name.Name)-6:] == "Locked" {
			return
		}
		p.Reportf(accessPos,
			"%s.%s is documented `guarded by %s` but method %s touches it without calling %s.%s.Lock/RLock (suffix the method `Locked` if the caller holds it)",
			g.structName, g.fieldName, g.mutexName, fn.Name.Name, recvName, g.mutexName)
	}
}

// fieldAccess returns the position of the first `recv.field` access in
// the method body, or NoPos.
func fieldAccess(p *Pass, fn *ast.FuncDecl, recvName, fieldName string) token.Pos {
	pos := token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != fieldName {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName {
			pos = sel.Pos()
			return false
		}
		return true
	})
	return pos
}

// methodLocks reports whether the body contains `recv.mu.Lock()` or
// `recv.mu.RLock()`.
func methodLocks(p *Pass, fn *ast.FuncDecl, recvName, muName string) bool {
	want := recvName + "." + muName
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := asMutexOp(p.Pkg.Info, call, "Lock", "RLock"); ok && op.recv == want {
			found = true
		}
		return true
	})
	return found
}
