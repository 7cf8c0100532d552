package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bwcluster/internal/analysis"
)

// fixture returns the repo-relative path of one analyzer fixture
// package; the CLI tests run from cmd/bwc-vet, two levels down.
func fixture(name string) string {
	return "../../internal/analysis/testdata/src/" + name
}

func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "bwc-vet ") {
		t.Errorf("version output = %q", out.String())
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	usage := errOut.String()
	if !strings.Contains(usage, "usage: bwc-vet") {
		t.Errorf("usage output missing header: %q", usage)
	}
	for _, name := range analysis.CheckNames() {
		if !strings.Contains(usage, name) {
			t.Errorf("usage output does not describe check %q", name)
		}
	}
}

// TestChecksListMode verifies `-checks list` prints every registered
// check with its one-line doc and exits clean without analyzing
// anything (no package patterns required).
func TestChecksListMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-checks", "list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errOut.String())
	}
	for _, c := range analysis.Checks {
		if !strings.Contains(out.String(), c.Name) || !strings.Contains(out.String(), c.Doc) {
			t.Errorf("list output missing check %q with its doc:\n%s", c.Name, out.String())
		}
	}
	if errOut.Len() != 0 {
		t.Errorf("list mode wrote to stderr: %q", errOut.String())
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-checks", "nosuch", fixture("determinism")}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown check") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// TestFixturesFailWithDiagnostics is the CLI half of the acceptance
// gate: pointing bwc-vet at each of the 11 fixture packages exits
// non-zero with a diagnostic from that fixture's check, so a fixture
// going green means a check silently died.
func TestFixturesFailWithDiagnostics(t *testing.T) {
	cases := []struct {
		fixture string
		check   string
		msg     string
	}{
		{"determinism", "determinism", "global rand"},
		{"iodeterminism", "determinism", "map iteration order leaks"},
		{"concurrency", "concurrency", "leaks the lock"},
		{"telemetryhygiene", "telemetry", "composite literals"},
		{"apihygiene", "apihygiene", "no doc comment"},
		{"flighthygiene", "flight", "compile-time constants"},
		{"arenahygiene", "arenahygiene", "index-addressed arenas"},
		{"directive", "determinism", "wall clock"},
		{"lockorder", "lockorder", "lock-acquisition cycle"},
		{"goroleak", "goroleak", "never provably exits"},
		{"protostate", "protostate", "not exhaustive"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{fixture(tc.fixture)}, &out, &errOut)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut.String())
			}
			if !strings.Contains(out.String(), tc.msg) {
				t.Errorf("stdout missing %q:\n%s", tc.msg, out.String())
			}
			if !strings.Contains(out.String(), "["+tc.check+"]") {
				t.Errorf("stdout missing check tag [%s]:\n%s", tc.check, out.String())
			}
		})
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", fixture("apihygiene")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	var findings []analysis.Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON finding array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	for _, f := range findings {
		if f.Check == "" || f.File == "" || f.Line <= 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if strings.HasPrefix(f.File, "/") {
			t.Errorf("finding path %q is absolute; want module-relative", f.File)
		}
	}
}

func TestChecksFlagScopes(t *testing.T) {
	// The apihygiene fixture contains only apihygiene violations, so
	// running just the determinism check over it must come back clean.
	var out, errOut bytes.Buffer
	if code := run([]string{"-checks", "determinism", fixture("apihygiene")}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

func TestJSONEmptyIsArray(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "-checks", "determinism", fixture("apihygiene")}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("empty finding set should encode as [], got %q", got)
	}
}
