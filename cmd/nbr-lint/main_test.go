package main

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"nbrallgather/internal/lintout"
)

// TestModuleIsClean runs the CLI path over the real module: the tree
// must produce zero findings and a nil error.
func TestModuleIsClean(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-dir", filepath.Join("..", "..")}, &out); err != nil {
		t.Fatalf("lint over module failed: %v\n%s", err, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("expected no output on a clean module, got:\n%s", out.String())
	}
}

// TestFixturesFail runs the CLI over the golden fixture tree: every
// bad package must surface findings and the run must report an error.
func TestFixturesFail(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	var out strings.Builder
	err := run([]string{"-dir", fixtures, "-modpath", "nbrallgather"}, &out)
	if err == nil {
		t.Fatalf("fixture tree should produce findings, got none:\n%s", out.String())
	}
	if !errors.As(err, new(lintout.Found)) {
		t.Fatalf("expected lintout.Found, got %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"[determinism]", "[deadlockshape]", "[errdiscipline]", "[tagdiscipline]", "[vtclean]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fixture output missing %s findings:\n%s", want, text)
		}
	}
}

// TestAnalyzerSubset checks -analyzers filtering: only the requested
// analyzer's findings appear.
func TestAnalyzerSubset(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	var out strings.Builder
	err := run([]string{"-dir", fixtures, "-modpath", "nbrallgather", "-analyzers", "vtclean"}, &out)
	if err == nil {
		t.Fatal("vtclean subset over fixtures should still fail")
	}
	text := out.String()
	if !strings.Contains(text, "[vtclean]") {
		t.Errorf("missing vtclean findings:\n%s", text)
	}
	if strings.Contains(text, "[tagdiscipline]") {
		t.Errorf("subset run leaked other analyzers:\n%s", text)
	}
}

// TestJSONOutput checks the machine-readable mode round-trips.
func TestJSONOutput(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	var out strings.Builder
	err := run([]string{"-dir", fixtures, "-modpath", "nbrallgather", "-json"}, &out)
	if err == nil {
		t.Fatal("fixture tree should produce findings")
	}
	var findings []lintout.Finding
	if jerr := json.Unmarshal([]byte(out.String()), &findings); jerr != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", jerr, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output is empty")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Fatalf("incomplete finding: %+v", f)
		}
	}
}

// TestUnknownAnalyzer checks the flag validation path.
func TestUnknownAnalyzer(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-analyzers", "nope"}, &out); err == nil {
		t.Fatal("unknown analyzer name should fail")
	}
}

// TestSARIFOutput checks the -sarif mode emits a valid SARIF 2.1.0 log
// with one rule per analyzer and a located result per finding.
func TestSARIFOutput(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	var out strings.Builder
	err := run([]string{"-dir", fixtures, "-modpath", "nbrallgather", "-sarif"}, &out)
	if err == nil {
		t.Fatal("fixture tree should produce findings")
	}
	var log lintout.SARIFLog
	if jerr := json.Unmarshal([]byte(out.String()), &log); jerr != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", jerr, out.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "nbr-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) == 0 {
		t.Fatal("SARIF results are empty")
	}
	rules := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, res := range run.Results {
		if !rules[res.RuleID] {
			t.Errorf("result rule %q not declared in driver rules", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result without location: %+v", res)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine <= 0 {
			t.Errorf("incomplete location: %+v", loc)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("URI not slash-separated: %q", loc.ArtifactLocation.URI)
		}
	}
	// deadlockshape must be represented among the results.
	seen := map[string]bool{}
	for _, res := range run.Results {
		seen[res.RuleID] = true
	}
	if !seen["deadlockshape"] {
		t.Error("no SARIF result from deadlockshape over the fixtures")
	}
}

// TestExitCodes pins the exit-code contract: findings exit 1, tool
// failures (unloadable dir, bad flags) exit 2, clean runs exit 0.
func TestExitCodes(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	var out, errOut strings.Builder
	if code := Main([]string{"-dir", fixtures, "-modpath", "nbrallgather"}, &out, &errOut); code != 1 {
		t.Errorf("findings must exit 1, got %d (stderr: %s)", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-dir", filepath.Join("..", "..", "no-such-dir")}, &out, &errOut); code != 2 {
		t.Errorf("unloadable dir must exit 2, got %d", code)
	}
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-analyzers", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag value must exit 2, got %d", code)
	}
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-json", "-sarif"}, &out, &errOut); code != 2 {
		t.Errorf("conflicting output modes must exit 2, got %d", code)
	}
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-dir", filepath.Join("..", "..")}, &out, &errOut); code != 0 {
		t.Errorf("clean module must exit 0, got %d (stderr: %s)", code, errOut.String())
	}
}
