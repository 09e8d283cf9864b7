package main

import (
	"encoding/json"
	"strings"
	"testing"

	"nbrallgather/internal/lintout"
)

// TestMatrixCleanExit pins the headline guarantee: the full matrix
// verifies clean, so the tool exits 0 with no output.
func TestMatrixCleanExit(t *testing.T) {
	var out, errOut strings.Builder
	if code := Main(nil, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run printed: %q", out.String())
	}
}

// TestSingleCaseAndList exercises -case and -list.
func TestSingleCaseAndList(t *testing.T) {
	var out, errOut strings.Builder
	if code := Main([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d: %s", code, errOut.String())
	}
	names := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(names) < 30 {
		t.Fatalf("matrix lists only %d cases", len(names))
	}
	out.Reset()
	if code := Main([]string{"-case", names[0]}, &out, &errOut); code != 0 {
		t.Fatalf("-case %s exit = %d: %s", names[0], code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := Main([]string{"-case", "no/such/case"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown case exit = %d, want 2", code)
	}
}

// TestSARIFOutput checks the SARIF log parses and carries the
// invariant rule table.
func TestSARIFOutput(t *testing.T) {
	var out, errOut strings.Builder
	if code := Main([]string{"-sarif"}, &out, &errOut); code != 0 {
		t.Fatalf("-sarif exit = %d: %s", code, errOut.String())
	}
	var log lintout.SARIFLog
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log.Runs[0].Tool.Driver.Name != "nbr-verify" {
		t.Fatalf("tool name = %q", log.Runs[0].Tool.Driver.Name)
	}
	ids := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		ids[r.ID] = true
	}
	for _, want := range []string{"completeness", "matching", "deadlock", "loadbound", "avoidance"} {
		if !ids[want] {
			t.Fatalf("rule %q missing from SARIF driver", want)
		}
	}
}

// TestLoadTable smoke-tests the -load report.
func TestLoadTable(t *testing.T) {
	var out, errOut strings.Builder
	if code := Main([]string{"-load"}, &out, &errOut); code != 0 {
		t.Fatalf("-load exit = %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "uplink mm") || !strings.Contains(out.String(), "Eq.8") {
		t.Fatalf("load table missing columns:\n%s", out.String())
	}
}

// TestFlagConflict rejects -json with -sarif.
func TestFlagConflict(t *testing.T) {
	var out, errOut strings.Builder
	if code := Main([]string{"-json", "-sarif"}, &out, &errOut); code != 2 {
		t.Fatalf("conflicting flags exit = %d, want 2", code)
	}
}
