package analysis

import (
	"go/ast"
	"strings"
)

// runAPIHygiene keeps the internal API surface navigable: every exported
// top-level identifier (and exported method) in scoped packages carries
// a doc comment, and context.Context — where a function takes one — is
// the first parameter, per the standard library convention.
func runAPIHygiene(p *Pass) {
	if !inScope("apihygiene", p.Pkg) {
		return
	}
	for _, fn := range p.Pkg.FuncDecls() {
		checkFuncHygiene(p, fn)
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.GenDecl); ok {
				checkGenDeclDocs(p, d)
			}
		}
	}
}

// checkFuncHygiene enforces doc comments on exported functions and
// methods (methods only when their receiver type is itself exported) and
// context-first parameter ordering on every function.
func checkFuncHygiene(p *Pass, fn *ast.FuncDecl) {
	if isExported(fn.Name.Name) && fn.Doc.Text() == "" {
		recv := receiverTypeName(fn)
		if recv == "" {
			p.Reportf(fn.Name.Pos(), "exported function %s has no doc comment", fn.Name.Name)
		} else if isExported(recv) {
			p.Reportf(fn.Name.Pos(), "exported method %s.%s has no doc comment", recv, fn.Name.Name)
		}
	}
	if fn.Type.Params == nil {
		return
	}
	for i, field := range fn.Type.Params.List {
		if i == 0 {
			continue
		}
		if sel, ok := field.Type.(*ast.SelectorExpr); ok {
			if pkgPath, ok := selectorPackage(p.Pkg.Info, sel); ok && pkgPath == "context" && sel.Sel.Name == "Context" {
				p.Reportf(field.Type.Pos(),
					"context.Context must be the first parameter of %s, not parameter %d", fn.Name.Name, i+1)
			}
		}
	}
}

// checkGenDeclDocs enforces doc comments on exported types, consts and
// vars. A doc comment on the grouped declaration covers its specs (the
// `var ( … )` block idiom); a spec-level doc or trailing line comment
// also counts, mirroring what godoc renders.
func checkGenDeclDocs(p *Pass, d *ast.GenDecl) {
	groupDoc := d.Doc.Text() != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if isExported(s.Name.Name) && !groupDoc && s.Doc.Text() == "" && !isDocComment(s.Comment) {
				p.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDoc || s.Doc.Text() != "" || isDocComment(s.Comment) {
				continue
			}
			for _, name := range s.Names {
				if isExported(name.Name) {
					p.Reportf(name.Pos(), "exported %s %s has no doc comment", declKind(d), name.Name)
				}
			}
		}
	}
}

// isDocComment reports whether a trailing comment group counts as
// documentation. The self-test fixtures' `// want …` expectation markers
// do not.
func isDocComment(g *ast.CommentGroup) bool {
	text := g.Text()
	return text != "" && !strings.HasPrefix(text, "want `")
}

func declKind(d *ast.GenDecl) string {
	switch d.Tok.String() {
	case "const":
		return "const"
	case "var":
		return "var"
	}
	return "declaration"
}
