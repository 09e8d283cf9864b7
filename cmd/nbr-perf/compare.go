package main

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"nbrallgather/internal/order"
)

// Verdicts of -compare, per metric × workload.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

var errWorse = errors.New("at least one metric is worse")

// compareFiles prints one row per metric × workload of two result
// documents (a = before, b = after) with both medians, quartiles, the
// bound and a verdict, and fails if any row is worse.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Env.Seed == b.Env.Seed
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\ta q1..q3\tb\tb q1..q3\tchange\tbound\tverdict")
	worse := 0
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		// failed_share may not rise.
		fa, fb := share(ra.Failed, ra.Attempted), share(rb.Failed, rb.Attempted)
		v := verdictSame
		if fb > fa {
			v = verdictWorse
			worse++
		} else if fb < fa {
			v = verdictBetter
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.6g\t\t%.6g\t\t\t0\t%s\n", name, fa, fb, v)
		for _, metric := range order.SortedKeys(ra.Metrics) {
			va := ra.Metrics[metric]
			vb, ok := rb.Metrics[metric]
			if !ok {
				continue
			}
			v, change := verdict(va, vb, sameSeed)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.9g\t%.4g..%.4g\t%.9g\t%.4g..%.4g\t%+.2f%%\t%g\t%s\n",
				name, metric, va.Unit, va.Value, va.Q1, va.Q3, vb.Value, vb.Q1, vb.Q3, 100*change, bound(va, sameSeed), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d rows: %w", worse, errWorse)
	}
	return nil
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// bound is the share of a's median by which a metric may worsen. A
// simulated metric is exact: under one seed its bound is 0, under two
// seeds the seed-to-seed bound of the metric list applies.
func bound(v value, sameSeed bool) float64 {
	if v.Kind == kindSim && sameSeed {
		return 0
	}
	return v.Bound
}

// verdict compares after (b) against before (a); change is signed so
// that positive is worse.
func verdict(a, b value, sameSeed bool) (string, float64) {
	change := 0.0
	if a.Value != 0 {
		change = (b.Value - a.Value) / a.Value
	} else if b.Value != 0 {
		change = 1
	}
	if a.Better == higher {
		change = -change
	}
	limit := bound(a, sameSeed)
	if a.Kind == kindSim && sameSeed {
		switch {
		case a.Value == b.Value:
			return verdictSame, 0
		case change > 0:
			return verdictWorse, change
		}
		return verdictBetter, change
	}
	// A host metric whose run-to-run spread exceeds the bound cannot
	// resolve a change of the bound's size while the two runs' middle
	// halves overlap.
	spread := max(relSpread(a.Q1, a.Value, a.Q3), relSpread(b.Q1, b.Value, b.Q3))
	if limit > 0 && spread > limit && a.Q1 <= b.Q3 && b.Q1 <= a.Q3 {
		return verdictUnresolved, change
	}
	switch {
	case change > limit:
		return verdictWorse, change
	case change < -limit:
		return verdictBetter, change
	}
	return verdictSame, change
}
