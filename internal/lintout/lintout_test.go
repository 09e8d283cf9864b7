package lintout

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteSARIFClampsLine pins the line-less finding handling: SARIF
// requires startLine ≥ 1, so plan findings without a rank anchor to 1.
func TestWriteSARIFClampsLine(t *testing.T) {
	var out strings.Builder
	f := Finding{File: "plan/case", Analyzer: "deadlock", Message: "cycle", Line: 0}
	if err := WriteSARIF(&out, "nbr-verify", []Rule{{ID: "deadlock", Doc: "d"}}, []Finding{f}); err != nil {
		t.Fatal(err)
	}
	var log SARIFLog
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatal(err)
	}
	if got := log.Runs[0].Results[0].Locations[0].PhysicalLocation.Region.StartLine; got != 1 {
		t.Fatalf("startLine = %d, want clamped to 1", got)
	}
	if log.Runs[0].Tool.Driver.Name != "nbr-verify" {
		t.Fatalf("tool name = %q", log.Runs[0].Tool.Driver.Name)
	}
}
