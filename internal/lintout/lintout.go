// Package lintout is the shared machine-readable output layer for the
// repo's static checkers — nbr-lint (source invariants) and nbr-verify
// (plan invariants). Both tools emit the same finding shape and the
// same minimal SARIF 2.1.0 log for code-scanning upload, so CI plumbing
// written for one applies unchanged to the other.
package lintout

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"
)

// Finding is the machine-readable shape of one diagnostic. For
// source checkers File is a path and Line a source line; for plan
// checkers File names the verified case (a pseudo-path) and Line the
// rank the finding anchors to, when one applies.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Rule describes one analyzer (or invariant) for the SARIF rule table.
type Rule struct {
	ID  string
	Doc string
}

// Found is the error of a clean run of tool that found N violations.
type Found struct {
	Tool string
	N    int
}

func (e Found) Error() string { return fmt.Sprintf("%s: %d finding(s)", e.Tool, e.N) }

// Main runs a checker and maps its outcome to the exit-code contract:
// 0 clean, 1 findings (Found), 2 the tool itself failed.
func Main(run func([]string, io.Writer) error, args []string, out, errOut io.Writer) int {
	err := run(args, out)
	if err == nil {
		return 0
	}
	fmt.Fprintln(errOut, err)
	if errors.As(err, new(Found)) {
		return 1
	}
	return 2
}

// Format is a checker's choice of output: text, -json or -sarif.
type Format struct{ json, sarif *bool }

// Flags registers -json and -sarif on fs.
func Flags(fs *flag.FlagSet) Format {
	return Format{fs.Bool("json", false, "emit findings as a JSON array"), fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")}
}

// Check rejects -json with -sarif.
func (f Format) Check(tool string) error {
	if *f.json && *f.sarif {
		return fmt.Errorf("%s: -json and -sarif are mutually exclusive", tool)
	}
	return nil
}

// Write renders findings as the flags chose, as file:line: [analyzer]
// message lines by default, and returns Found if there are any.
func (f Format) Write(out io.Writer, tool string, rules []Rule, findings []Finding) error {
	var err error
	switch {
	case *f.sarif:
		err = WriteSARIF(out, tool, rules, findings)
	case *f.json:
		err = WriteJSON(out, findings)
	default:
		for _, f := range findings {
			fmt.Fprintf(out, "%s:%d: [%s] %s\n", f.File, f.Line, f.Analyzer, f.Message)
		}
	}
	if err == nil && len(findings) > 0 {
		err = Found{tool, len(findings)}
	}
	return err
}

// WriteJSON renders the findings as an indented JSON array.
func WriteJSON(out io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{} // zero findings render as [], not null
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// Minimal SARIF 2.1.0 emission: one run, one rule per analyzer, one
// result per finding. Just enough surface for code-scanning upload —
// the full schema is enormous and everything else is optional. The
// structs are exported so consumers (and the CLI tests) can decode
// what they emitted.

type SARIFLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []SARIFRun `json:"runs"`
}

type SARIFRun struct {
	Tool    SARIFTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

type SARIFTool struct {
	Driver SARIFDriver `json:"driver"`
}

type SARIFDriver struct {
	Name  string      `json:"name"`
	Rules []SARIFRule `json:"rules"`
}

type SARIFRule struct {
	ID               string    `json:"id"`
	ShortDescription SARIFText `json:"shortDescription"`
}

type SARIFText struct {
	Text string `json:"text"`
}

type SARIFResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   SARIFText       `json:"message"`
	Locations []SARIFLocation `json:"locations"`
}

type SARIFLocation struct {
	PhysicalLocation SARIFPhysical `json:"physicalLocation"`
}

type SARIFPhysical struct {
	ArtifactLocation SARIFArtifact `json:"artifactLocation"`
	Region           SARIFRegion   `json:"region"`
}

type SARIFArtifact struct {
	URI string `json:"uri"`
}

type SARIFRegion struct {
	StartLine int `json:"startLine"`
}

const sarifSchema = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// WriteSARIF renders the findings as a SARIF 2.1.0 log for the named
// tool. File paths are emitted slash-separated and cleaned so they
// resolve relative to the checked root; SARIF requires startLine ≥ 1,
// so line-less findings anchor to line 1.
func WriteSARIF(out io.Writer, tool string, rules []Rule, findings []Finding) error {
	srules := make([]SARIFRule, 0, len(rules))
	for _, r := range rules {
		srules = append(srules, SARIFRule{ID: r.ID, ShortDescription: SARIFText{Text: r.Doc}})
	}
	results := make([]SARIFResult, 0, len(findings))
	for _, f := range findings {
		line := max(f.Line, 1)
		results = append(results, SARIFResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: SARIFText{Text: f.Message},
			Locations: []SARIFLocation{{
				PhysicalLocation: SARIFPhysical{
					ArtifactLocation: SARIFArtifact{URI: filepath.ToSlash(filepath.Clean(f.File))},
					Region:           SARIFRegion{StartLine: line},
				},
			}},
		})
	}
	log := SARIFLog{
		Schema:  sarifSchema,
		Version: "2.1.0",
		Runs: []SARIFRun{{
			Tool:    SARIFTool{Driver: SARIFDriver{Name: tool, Rules: srules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
