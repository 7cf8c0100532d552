// Package analysis is bwc-vet: a stdlib-only static analyzer that
// enforces the repository's codified invariants — seed determinism in the
// algorithm packages, lock discipline, telemetry hygiene and API hygiene.
// Each check is independently toggleable and reported findings carry the
// check name, so CI annotations and suppression comments can target one
// class of diagnostic at a time.
//
// A finding at a source line is suppressed by a directive comment on the
// same line or the line above:
//
//	//bwcvet:allow <check> <reason>
//
// The reason is mandatory: a suppression records an argued exception to
// an invariant (for example "wall-clock deadline; never feeds algorithm
// state"), and an unexplained one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// A Finding is one reported invariant violation.
type Finding struct {
	// Check is the name of the check that fired ("determinism", ...).
	Check string `json:"check"`
	// Pos locates the violation.
	Pos token.Position `json:"-"`
	// File, Line and Column mirror Pos for JSON output.
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	// Message describes the violation and the expected fix.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Check)
}

// Config selects which checks run. The zero value runs nothing; use
// DefaultConfig. Where each check runs is fixed (inScope), not
// configured.
type Config struct {
	// Enabled maps check name to whether it runs.
	Enabled map[string]bool
}

// DefaultConfig returns the repository's canonical configuration: every
// check on.
func DefaultConfig() *Config {
	enabled := make(map[string]bool, len(Checks))
	for _, c := range Checks {
		enabled[c.Name] = true
	}
	return &Config{Enabled: enabled}
}

// telemetryPath is the import path of the telemetry package, which is
// exempt from the determinism and telemetry checks (it is the code that
// measures wall time on purpose).
const telemetryPath = "bwcluster/internal/telemetry"

// algorithmPackages are the import paths whose results must be
// bit-identical for a fixed seed; the determinism check fires in them.
var algorithmPackages = []string{
	"bwcluster/internal/metric",
	"bwcluster/internal/predtree",
	"bwcluster/internal/cluster",
	"bwcluster/internal/construct",
	"bwcluster/internal/kdiam",
	"bwcluster/internal/membership",
	"bwcluster/internal/overlay",
	"bwcluster/internal/runtime",
	"bwcluster/internal/sim",
	"bwcluster/internal/sword",
	"bwcluster/internal/vivaldi",
}

// ioPackages are the import paths that legitimately talk to the outside
// world (sockets, timers): the determinism check still bans the global
// math/rand stream and map-order leaks there — injected-fault schedules
// must derive from explicit seeds — but wall-clock reads are allowed,
// because deadlines and reconnect backoff are what an I/O layer is for.
var ioPackages = []string{
	"bwcluster/internal/transport",
	"bwcluster/internal/fleet",
	"bwcluster/internal/serveapi",
	"bwcluster/internal/bwledger",
}

// instrumentedPackages start spans or register metrics; the telemetry
// and flight checks run on them.
var instrumentedPackages = append([]string{
	"bwcluster",
	"bwcluster/cmd/bwc-serve",
	"bwcluster/internal/transport",
	"bwcluster/internal/fleet",
	"bwcluster/internal/serveapi",
}, algorithmPackages...)

// checkPackages lists, per check, the import paths it runs on (DESIGN.md
// §8d). concurrency and goroleak run on every package, and apihygiene on
// every package under internal/.
var checkPackages = map[string][]string{
	"determinism": append(slices.Clone(algorithmPackages), ioPackages...),
	"telemetry":   instrumentedPackages,
	"flight":      instrumentedPackages,
	// The flat hot-path packages use arena representations (DESIGN.md
	// §8g): no pointer-linked node webs or integer-keyed map state.
	"arenahygiene": {
		"bwcluster/internal/cluster",
		"bwcluster/internal/membership",
		"bwcluster/internal/predtree",
	},
	// The concurrent packages' mutexes form the interprocedural lock
	// graph (DESIGN.md §8i).
	"lockorder": {
		"bwcluster/internal/runtime",
		"bwcluster/internal/transport",
		"bwcluster/internal/membership",
		"bwcluster/internal/telemetry",
		"bwcluster/internal/fleet",
		"bwcluster/internal/bwledger",
	},
	// The protocol packages define or dispatch on the wire protocol's
	// message kinds.
	"protostate": {
		"bwcluster/internal/runtime",
		"bwcluster/internal/transport",
	},
}

// fixtureBase returns the directory base name when pkg is a bwc-vet test
// fixture (under testdata/src).
func fixtureBase(pkg *Package) (string, bool) {
	i := strings.LastIndex(pkg.Path, "/testdata/src/")
	if i < 0 {
		return "", false
	}
	return pkg.Path[i+len("/testdata/src/"):], true
}

// inScope reports whether check runs on pkg. A fixture package opts into
// exactly the check its base name selects, less any "hygiene" suffix
// (telemetryhygiene selects telemetry), so `bwc-vet
// ./internal/analysis/testdata/src/X` reproduces the self-tests from the
// command line; the directive and iodeterminism fixtures select
// determinism.
func inScope(check string, pkg *Package) bool {
	if base, ok := fixtureBase(pkg); ok {
		if base == "directive" || base == "iodeterminism" {
			return check == "determinism"
		}
		return strings.TrimSuffix(base, "hygiene") == strings.TrimSuffix(check, "hygiene")
	}
	switch check {
	case "concurrency", "goroleak":
		return true
	case "apihygiene":
		return strings.Contains(pkg.Path, "/internal/")
	}
	return slices.Contains(checkPackages[check], pkg.Path)
}

// ioPackage reports whether pkg is an I/O package: determinism applies
// in its seed-and-order form (global rand, map-order leaks) but
// wall-clock reads are in charter.
func ioPackage(pkg *Package) bool {
	if base, ok := fixtureBase(pkg); ok {
		return base == "iodeterminism"
	}
	return slices.Contains(ioPackages, pkg.Path)
}

// A Check is one named, independently toggleable analysis pass.
type Check struct {
	// Name is the identifier used by -checks and suppression comments.
	Name string
	// Doc is a one-line description for usage output.
	Doc string
	// Run inspects one package and reports through the pass.
	Run func(*Pass)
}

// Checks lists every check in the order they run.
var Checks = []*Check{
	{Name: "determinism", Doc: "no wall clocks, global math/rand, or map-order leaks in algorithm packages", Run: runDeterminism},
	{Name: "concurrency", Doc: "Lock paired with defer Unlock across early returns; guarded-by fields read under their lock", Run: runConcurrency},
	{Name: "telemetry", Doc: "spans and metrics only via the nil-safe telemetry constructors", Run: runTelemetry},
	{Name: "flight", Doc: "flight recorders explicitly plumbed; event kinds are compile-time constants", Run: runFlight},
	{Name: "apihygiene", Doc: "exported identifiers documented; context.Context first", Run: runAPIHygiene},
	{Name: "arenahygiene", Doc: "flat hot-path packages: no pointer-linked node webs or integer-keyed map fields", Run: runArenaHygiene},
	{Name: "lockorder", Doc: "interprocedural: no lock-acquisition cycles; no blocking operations reachable while a lock is held", Run: runLockOrder},
	{Name: "goroleak", Doc: "interprocedural: every go statement has a provable exit path (done channel, context, or conditional return)", Run: runGoroLeak},
	{Name: "protostate", Doc: "interprocedural: message-kind switches are exhaustive; wire schema and clone cover every payload field", Run: runProtoState},
}

// CheckNames returns the known check names in run order.
func CheckNames() []string {
	names := make([]string, len(Checks))
	for i, c := range Checks {
		names[i] = c.Name
	}
	return names
}

// Pass carries one check's view of one package and collects findings.
type Pass struct {
	Check *Check
	Pkg   *Package
	Cfg   *Config

	suppress map[string][]directive // filename -> directives
	findings *[]Finding

	// pkgs and prog give interprocedural checks the whole run's packages
	// and the lazily built, run-shared program view (see Prog).
	pkgs []*Package
	prog **Program
}

// directive is one parsed //bwcvet:allow comment.
type directive struct {
	line   int
	check  string
	reason string
	used   bool
}

var directiveRE = regexp.MustCompile(`^//bwcvet:allow\s+(\S+)\s*(.*)$`)

// hotpathRE matches the //bwcvet:hotpath marker: a contract comment on a
// function declaring it allocation-free (enforced by the arenahygiene
// check). Like a suppression, it must carry a reason.
var hotpathRE = regexp.MustCompile(`^//bwcvet:hotpath\s*(.*)$`)

// Reportf records a finding at pos unless a matching allow directive
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	for i := range p.suppress[position.Filename] {
		d := &p.suppress[position.Filename][i]
		if d.check != p.Check.Name {
			continue
		}
		if d.line == position.Line || d.line == position.Line-1 {
			d.used = true
			return
		}
	}
	*p.findings = append(*p.findings, Finding{
		Check:   p.Check.Name,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// collectDirectives parses every //bwcvet:allow comment in the package,
// reporting malformed ones (unknown check, missing reason) as findings.
func collectDirectives(pkg *Package, findings *[]Finding) map[string][]directive {
	known := make(map[string]bool)
	for _, c := range Checks {
		known[c.Name] = true
	}
	out := make(map[string][]directive)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//bwcvet:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				text := c.Text
				// The self-test fixtures append `// want …` expectation
				// markers to directive comments; they are not part of the
				// directive.
				if i := strings.Index(text, " // want "); i >= 0 {
					text = text[:i]
				}
				bad := func(msg string) {
					*findings = append(*findings, Finding{
						Check: "directive", Pos: pos,
						File: pos.Filename, Line: pos.Line, Column: pos.Column,
						Message: msg,
					})
				}
				if hm := hotpathRE.FindStringSubmatch(text); hm != nil {
					if strings.TrimSpace(hm[1]) == "" {
						bad("bwcvet:hotpath needs a reason: the marker is an allocation-free contract, and the contract says why the path is hot")
					}
					continue
				}
				m := directiveRE.FindStringSubmatch(text)
				if m == nil {
					bad("malformed bwcvet directive; want //bwcvet:allow <check> <reason> (or //bwcvet:hotpath <reason>)")
					continue
				}
				if !known[m[1]] {
					bad(fmt.Sprintf("bwcvet:allow names unknown check %q (known: %s)", m[1], strings.Join(CheckNames(), ", ")))
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad(fmt.Sprintf("bwcvet:allow %s needs a reason: a suppression is an argued exception, not a mute button", m[1]))
					continue
				}
				out[pos.Filename] = append(out[pos.Filename], directive{line: pos.Line, check: m[1], reason: m[2]})
			}
		}
	}
	return out
}

// Analyze runs every enabled check over every package and returns the
// surviving findings sorted by position.
func Analyze(pkgs []*Package, cfg *Config) []Finding {
	var findings []Finding
	// The interprocedural program is built at most once per run, the
	// first time any enabled check asks for it, and shared by the rest.
	var prog *Program
	for _, pkg := range pkgs {
		suppress := collectDirectives(pkg, &findings)
		for _, check := range Checks {
			if !cfg.Enabled[check.Name] {
				continue
			}
			pass := &Pass{Check: check, Pkg: pkg, Cfg: cfg, suppress: suppress, findings: &findings, pkgs: pkgs, prog: &prog}
			check.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Message < b.Message
	})
	return findings
}

// pathEnclosing returns the AST path from the innermost node containing
// pos outward to the file, or nil.
func pathEnclosing(f *ast.File, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	// path is outermost-first; reverse to innermost-first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
