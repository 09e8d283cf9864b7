package harness

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// VarianceRow reports run-to-run variation across independently seeded
// topologies — the paper repeats each experiment on freshly generated
// graphs and node assignments and discusses the resulting variance
// (its Fig. 6 error bars): "the experiments were repeated multiple
// times, and each time different nodes are assigned to the job".
type VarianceRow struct {
	Label   string
	MsgSize int
	Seeds   int
	// Means and coefficients of variation (σ/μ) per algorithm across
	// seeds.
	NaiveMean, NaiveCV float64
	DHMean, DHCV       float64
}

// SeedVariance measures naive and Distance Halving latency across
// independently seeded Erdős–Rényi graphs and scattered node
// placements.
func SeedVariance(c topology.Cluster, delta float64, msgSize, seeds int, wall time.Duration) (VarianceRow, error) {
	row := VarianceRow{
		Label:   fmt.Sprintf("δ=%.2f", delta),
		MsgSize: msgSize,
		Seeds:   seeds,
	}
	var naive, dh []float64
	for s := 0; s < seeds; s++ {
		g, err := vgraph.ErdosRenyi(c.Ranks(), delta, int64(1000+s))
		if err != nil {
			return row, err
		}
		placed := c.Scattered(int64(s))
		cfg := Config{Cluster: placed, MsgSize: msgSize, Trials: 1, Phantom: true, WallLimit: wall}
		nres, err := Measure(cfg, collective.NewNaive(g))
		if err != nil {
			return row, err
		}
		op, err := collective.NewDistanceHalving(g, placed.L())
		if err != nil {
			return row, err
		}
		dres, err := Measure(cfg, op)
		if err != nil {
			return row, err
		}
		naive = append(naive, nres.Mean)
		dh = append(dh, dres.Mean)
	}
	row.NaiveMean, row.NaiveCV = meanCV(naive)
	row.DHMean, row.DHCV = meanCV(dh)
	return row, nil
}

func meanCV(xs []float64) (mean, cv float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 || mean == 0 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += float64((x - mean) * (x - mean))
	}
	return mean, math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// PrintVariance renders variance rows.
func PrintVariance(w io.Writer, rows []VarianceRow) {
	fmt.Fprintf(w, "\n== Run-to-run variance across seeded topologies ==\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmsg\tseeds\tnaive mean\tnaive CV\tDH mean\tDH CV")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.1f%%\t%s\t%.1f%%\n",
			r.Label, FmtBytes(r.MsgSize), r.Seeds,
			FmtTime(r.NaiveMean), 100*r.NaiveCV,
			FmtTime(r.DHMean), 100*r.DHCV)
	}
	tw.Flush()
}
