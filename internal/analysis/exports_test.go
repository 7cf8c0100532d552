package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports names the exported functions and methods under internal/
// that no non-test code calls but that stay, each with its reason. Keys
// are "pkg.Func" or "pkg.Type.Method".
var keptExports = map[string]string{
	"analysis.Loader.Checked":                 "test seam: loader tests pin one type-check per package",
	"analysis.Loader.Loaded":                  "test seam: loader tests check the import graph",
	"analysis.Loader.ModulePath":              "test seam: loader tests pin the module path",
	"analysis.ProgramBuilds":                  "test seam: tests pin one program build per run",
	"cluster.MaxClusterSize":                  "reference: overlay tests check peers' CRTs against the direct scan",
	"lockcheck.Enabled":                       "test seam: tests branch on the lockcheck build tag",
	"membership.Tracker.Events":               "test seam: tests read the event ring",
	"membership.Tracker.Status":               "test seam: tests read one host's classification",
	"overlay.Network.ClusteringSpace":         "perfbench's BenchmarkDecentralQuery picks its hub with it",
	"overlay.Network.RemoveHost":              "reference: the sync fixed point runtime's remove tests compare against",
	"predtree.Forest.Labels":                  "ROADMAP items 12(a) and 14 give it callers",
	"predtree.ForestLabelDist":                "ROADMAP items 12(a) and 14 give it callers",
	"predtree.Label.Entries":                  "ROADMAP items 12(a) and 14 give labels callers",
	"predtree.Tree.AnchorChildren":            "test seam: remove tests check re-anchoring",
	"predtree.Tree.DistinctMeasurements":      "test seam: tests count one tree's measurements",
	"predtree.Tree.Root":                      "test seam: remove tests check root promotion",
	"runtime.Runtime.Ledger":                  "test seam: ledger tests read the attached ledger",
	"runtime.Runtime.Neighbors":               "test seam: churn tests read a peer's overlay links",
	"telemetry.Counter.Value":                 "test seam: counter tests read the count without the exposition",
	"telemetry.FlightRecorder.SetAnomalyHook": "test seam: tests observe anomaly snapshots",
	"telemetry.FlightRecorder.SetClock":       "test seam: tests drive the recorder's clock",
	"telemetry.Span.Attrs":                    "test seam: trace tests read a span's attributes",
	"transport.FaultTransport.DecisionAt":     "test seam: tests read the seeded fault schedule",
}

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ that no non-test code references. A method that implements
// an interface counts as used, and so does a name perfbench (its own
// module, which calls into internal/) selects in a file that imports
// the name's package. A test-only export is either a test oracle, which
// belongs in a _test.go file or testutil (exempt, since all of it
// serves tests), or dead.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, pkgs := loadModule(t)
	used := make(map[types.Object]bool)
	for _, pkg := range loader.Loaded() {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	ifaces := interfaces(loader.Loaded())
	perf := perfbenchSelectors(t, filepath.Join(loader.ModuleRoot(), "perfbench"))

	prefix := loader.ModulePath() + "/internal/"
	var unused []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, prefix) || pkg.Path == prefix+"testutil" {
			continue
		}
		for _, fd := range pkg.FuncDecls() {
			if !fd.Name.IsExported() {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || used[fn] || perf[pkg.Path+"."+fd.Name.Name] {
				continue
			}
			name := pkg.Types.Name() + "." + fd.Name.Name
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if implementsAny(recv.Type(), fd.Name.Name, ifaces) {
					continue
				}
				name = pkg.Types.Name() + "." + recvName(recv.Type()) + "." + fd.Name.Name
			}
			if _, ok := keptExports[name]; !ok {
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: move it into a test file or delete it", name)
	}
}

// interfaces returns every interface type declared at package level in
// pkgs or in any package they import, standard library included.
func interfaces(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

// implementsAny reports whether recv (T or *T) satisfies some interface
// in ifaces that declares a method called name.
func implementsAny(recv types.Type, name string, ifaces []*types.Interface) bool {
	ptr := recv
	if _, ok := recv.(*types.Pointer); !ok {
		ptr = types.NewPointer(recv)
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// recvName returns the name of a method receiver's base type.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// perfbenchSelectors returns "importpath.Name" for every package a
// perfbench Go file imports and every name that file selects. perfbench
// is a module of its own that calls into internal/, so a name it
// selects must keep its signature (make bench-module). The pairing is
// by file, not by type: a method selected on a value counts for every
// package the file imports.
func perfbenchSelectors(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				names[sel.Sel.Name] = true
			}
			return true
		})
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			for name := range names {
				keys[path+"."+name] = true
			}
		}
	}
	return keys
}
