// Command nbr-verify runs the static plan verifier
// (internal/planverify) over the conformance shape matrix — or one
// named case — and reports invariant violations as plan/<case>: [rule]
// message, exiting nonzero on any finding. It proves delivery
// completeness, matching discipline, rendezvous deadlock-freedom, and
// perfmodel load bounds for every built schedule without executing it;
// see DESIGN.md §12.
//
// Usage:
//
//	nbr-verify [-case name] [-list] [-load] [-json] [-sarif]
//
// -list prints the matrix case names. -load prints the static
// per-resource load table (max/min and max/mean ratios per case) next
// to the perfmodel cross-check instead of verifying.
//
// Exit codes: 0 — every plan proven clean; 1 — invariant findings;
// 2 — the tool itself failed (bad flags, unknown case, a builder
// refused the shape).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"nbrallgather/internal/lintout"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/planverify"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// Main runs the tool and maps its outcome to the exit-code contract.
func Main(args []string, out, errOut io.Writer) int { return lintout.Main(run, args, out, errOut) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nbr-verify", flag.ContinueOnError)
	fs.SetOutput(out)
	caseName := fs.String("case", "", "verify a single matrix case by name (default: all)")
	list := fs.Bool("list", false, "list matrix case names and exit")
	load := fs.Bool("load", false, "print the static load table instead of verifying")
	format := lintout.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := format.Check("nbr-verify"); err != nil {
		return err
	}

	cases, err := selectCases(*caseName)
	if err != nil {
		return err
	}
	if *list {
		for _, c := range cases {
			fmt.Fprintln(out, c.Name)
		}
		return nil
	}
	if *load {
		return loadTable(out, cases)
	}

	var findings []lintout.Finding
	for _, c := range cases {
		s, err := c.Extract()
		if err != nil {
			return fmt.Errorf("nbr-verify: %s: %w", c.Name, err)
		}
		for _, f := range s.Verify() {
			findings = append(findings, toFinding(c.Name, f))
		}
	}

	return format.Write(out, "nbr-verify", rules(), findings)
}

// selectCases resolves the matrix, optionally narrowed to one case.
func selectCases(name string) ([]planverify.Case, error) {
	if name != "" {
		c, err := planverify.FindCase(name)
		if err != nil {
			return nil, err
		}
		return []planverify.Case{c}, nil
	}
	return planverify.Cases()
}

// toFinding maps a plan finding into the shared output shape: the
// synthetic file is plan/<case> and the line anchors the rank (1-based
// so SARIF stays valid; 0 for schedule-global findings).
func toFinding(caseName string, f planverify.Finding) lintout.Finding {
	line := 0
	if f.Rank >= 0 {
		line = f.Rank + 1
	}
	return lintout.Finding{
		File:     "plan/" + caseName,
		Line:     line,
		Analyzer: f.Invariant,
		Message:  f.Message,
	}
}

// rules is the SARIF rule table: one rule per invariant, in sorted
// order for deterministic output.
func rules() []lintout.Rule {
	inv := planverify.Invariants()
	ids := make([]string, 0, len(inv))
	for id := range inv {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]lintout.Rule, 0, len(ids))
	for _, id := range ids {
		out = append(out, lintout.Rule{ID: id, Doc: inv[id]})
	}
	return out
}

// loadTable prints the static per-resource load ratios and the
// perfmodel cross-check for every case.
func loadTable(out io.Writer, cases []planverify.Case) error {
	fmt.Fprintf(out, "%-28s %8s %10s %10s %10s %10s %10s\n",
		"case", "msgs", "bytes", "port mm", "port μ", "nic mm", "uplink mm")
	for _, c := range cases {
		s, err := c.Extract()
		if err != nil {
			return fmt.Errorf("nbr-verify: %s: %w", c.Name, err)
		}
		l := s.Load()
		fmt.Fprintf(out, "%-28s %8d %10d %10.3f %10.3f %10.3f %10.3f\n",
			c.Name, l.Msgs(), l.Bytes(),
			planverify.RatioMaxMin(l.BytesOf(netmodel.ResPort)), planverify.RatioMaxMean(l.BytesOf(netmodel.ResPort)),
			planverify.RatioMaxMin(l.BytesOf(netmodel.ResNIC)), planverify.RatioMaxMin(l.BytesOf(netmodel.ResUplink)))
		if c.Algo == "dh" {
			cc := s.CrossCheck()
			fmt.Fprintf(out, "%-28s %8s δ=%.2f halving ≤ %.0f (Eq.8), N_off=%.2f (Eq.1), static halving mean %.2f\n",
				"", "model:", cc.Delta, cc.HalvingBound, cc.NOff, cc.StaticHalvingMean)
		}
	}
	return nil
}
