// Command nbr-lint runs the module's static invariant analyzers
// (internal/lint) and reports findings as file:line: [analyzer]
// message, exiting nonzero when any survive suppression. It is wired
// into `make lint` and CI; see DESIGN.md §8 for the invariants.
//
// Usage:
//
//	nbr-lint [-dir .] [-modpath path] [-analyzers a,b] [-json] [-sarif]
//
// Exit codes: 0 — clean; 1 — findings; 2 — the tool itself failed
// (bad flags, unloadable or untypeable source). CI distinguishes "the
// code has violations" from "the linter broke".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nbrallgather/internal/lint"
	"nbrallgather/internal/lintout"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// Main runs the tool and maps its outcome to the exit-code contract.
func Main(args []string, out, errOut io.Writer) int { return lintout.Main(run, args, out, errOut) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nbr-lint", flag.ContinueOnError)
	fs.SetOutput(out)
	dir := fs.String("dir", ".", "module or fixture root to lint")
	modpath := fs.String("modpath", "", "module path override (default: read from <dir>/go.mod)")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	format := lintout.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := format.Check("nbr-lint"); err != nil {
		return err
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		return err
	}

	var pkgs []*lint.Package
	if *modpath != "" {
		pkgs, err = lint.LoadDir(*dir, *modpath)
	} else {
		pkgs, err = lint.LoadModule(*dir)
	}
	if err != nil {
		return err
	}
	return format.Write(out, "nbr-lint", sarifRules(analyzers), toFindings(lint.RunAnalyzers(pkgs, analyzers)))
}

// toFindings renders diagnostics in the machine-readable shape shared
// with nbr-verify (internal/lintout).
func toFindings(diags []lint.Diagnostic) []lintout.Finding {
	findings := make([]lintout.Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, lintout.Finding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return findings
}

// sarifRules is the SARIF rule table: one rule per analyzer plus the
// full-suite-only stale-directive pseudo-analyzer.
func sarifRules(analyzers []*lint.Analyzer) []lintout.Rule {
	rules := make([]lintout.Rule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, lintout.Rule{ID: a.Name, Doc: a.Doc})
	}
	rules = append(rules, lintout.Rule{
		ID:  lint.StaleDirectiveName,
		Doc: "flags //lint: directives that no longer suppress anything",
	})
	return rules
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("nbr-lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
