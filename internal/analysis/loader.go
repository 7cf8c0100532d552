package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, the unit every check
// operates on.
type Package struct {
	// Path is the package's import path ("bwcluster/internal/metric").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object tables.
	Info *types.Info

	funcDecls []*ast.FuncDecl // lazy cache behind FuncDecls
}

// FuncDecls returns the package's function and method declarations in
// file order, computed once and shared by every check and by the
// interprocedural Program index — one canonical list instead of each
// pass re-discovering declarations with its own AST walk. Bodiless
// declarations (assembly stubs) are included; callers that need a body
// filter themselves.
func (pkg *Package) FuncDecls() []*ast.FuncDecl {
	if pkg.funcDecls == nil {
		pkg.funcDecls = []*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pkg.funcDecls = append(pkg.funcDecls, fd)
				}
			}
		}
	}
	return pkg.funcDecls
}

// Loader discovers, parses and type-checks the module's packages using
// nothing but the standard library: module-local imports are resolved
// from source relative to go.mod, everything else from the toolchain's
// export data (the gc importer, which runs `go list -export` and reads
// the build cache). Export data holds a package's exported objects only;
// no check reads an unexported standard-library object.
type Loader struct {
	Fset *token.FileSet

	// IncludeTests makes _test.go files part of the analyzed package.
	// Checks default to production sources only: tests may freely use
	// wall clocks and unseeded randomness.
	IncludeTests bool

	modRoot  string
	modPath  string
	std      types.Importer
	buildCtx build.Context
	loaded   map[string]*Package // by import path
	loading  map[string]bool     // import-cycle guard
	checked  int                 // packages type-checked (cache-sharing tests)
}

// NewLoader returns a Loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		modRoot:  root,
		modPath:  path,
		std:      importer.ForCompiler(fset, "gc", nil),
		buildCtx: build.Default,
		loaded:   make(map[string]*Package),
		loading:  make(map[string]bool),
	}, nil
}

// ModulePath returns the module path from go.mod.
// Kept: test seam: loader tests pin the module path.
func (l *Loader) ModulePath() string { return l.modPath }

// ModuleRoot returns the directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// Loaded returns every module package this loader has parsed and
// type-checked so far (explicitly loaded dirs and transitive module
// imports), sorted by import path.
// Kept: test seam: loader tests check the import graph.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.loaded))
	for _, pkg := range l.loaded {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Checked returns how many packages this loader has type-checked. Each
// package is checked at most once per loader, which is what keeps one
// bwc-vet run a single build; the loader tests assert this stays true.
// Kept: test seam: loader tests pin one type-check per package.
func (l *Loader) Checked() int { return l.checked }

// findModule walks up from dir to the enclosing go.mod and extracts the
// module path from its first "module" directive.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
	}
}

// Expand resolves command-line package patterns into package directories.
// Supported forms are "./..." (every package under dir, recursively),
// "dir/..." and plain directory paths; testdata, vendor and dot
// directories are skipped by the recursive forms.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: expand %q: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir (and, transitively,
// every module package it imports).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.modRoot)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// Import implements types.Importer so the checker can resolve the
// module's own import paths from source; everything else is delegated to
// the gc importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.load(path, filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints the way the compiler does: a file
		// excluded from the default build (e.g. the lockcheck-tagged
		// shadow assertion) would otherwise collide with its enabled
		// counterpart and fail the whole package's type check.
		if ok, err := l.buildCtx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// Test files may belong to an external "_test" package; keep only the
	// dominant (first file's) package to stay a single compilation unit.
	pkgName := files[0].Name.Name
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	files = kept

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	l.checked++
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = pkg
	return pkg, nil
}
