package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/sparse"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// fig2 prints the Section V model's Fig. 2 surface at the paper's
// shape (n=2160, S=2, L=18), then the model against the simulator on
// the scale's cluster: the paper's Section VII-A validation claim.
func fig2(w io.Writer, o *opts) error {
	model := perfmodel.NiagaraModel(2160, 18)
	if o.calibrate {
		fitted, err := perfmodel.Calibrate(topology.Niagara(2, model.L), netmodel.NiagaraParams(), perfmodel.CalibrationSizes)
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		model.Alpha, model.Beta = fitted.Alpha, fitted.Beta
		fmt.Fprintf(w, "calibrated from ping-pong: α=%.3gµs, β=%.3g GB/s\n", model.Alpha*1e6, model.Beta/1e9)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if o.csv {
		fmt.Fprintln(w, "delta,msg_bytes,t_naive_s,t_dh_s,speedup")
	} else {
		fmt.Fprintf(w, "== Fig. 2 — performance model, n=%d S=%d L=%d ==\n", model.N, model.S, model.L)
		fmt.Fprintln(tw, "density\tmsg\tT(naive)\tT(DH)\tpredicted speedup")
	}
	for _, p := range perfmodel.Fig2Series(model, harness.PaperDensities, harness.MsgSizes(8, 4<<20)) {
		if o.csv {
			fmt.Fprintf(w, "%g,%d,%g,%g,%g\n", p.Delta, p.Bytes, p.TNaive, p.TDH, p.Speedup)
		} else {
			fmt.Fprintf(tw, "δ=%.2f\t%s\t%s\t%s\t%.2fx\n", p.Delta, harness.FmtBytes(p.Bytes),
				harness.FmtTime(p.TNaive), harness.FmtTime(p.TDH), p.Speedup)
		}
	}
	tw.Flush()

	c := o.cluster(o.model)
	sim := perfmodel.NiagaraModel(c.Ranks(), c.L())
	if o.csv {
		fmt.Fprintln(w, "\ndelta,msg_bytes,model_speedup,sim_speedup")
	} else {
		fmt.Fprintf(w, "\n== Model vs simulation, %s ==\n", c)
		fmt.Fprintln(tw, "density\tmsg\tmodel speedup\tsimulated speedup")
	}
	for _, d := range []float64{0.05, 0.3, 0.7} {
		g, err := vgraph.ErdosRenyi(c.Ranks(), d, o.seed)
		if err != nil {
			return err
		}
		dh, err := collective.NewDistanceHalving(g, c.L())
		if err != nil {
			return err
		}
		for _, m := range []int{32, 2048, 65536} {
			cfg := harness.Config{Cluster: c, MsgSize: m, Trials: o.trials, Phantom: true, WallLimit: o.wall}
			naive, err := harness.Measure(cfg, collective.NewNaive(g))
			if err != nil {
				return err
			}
			dhr, err := harness.Measure(cfg, dh)
			if err != nil {
				return err
			}
			if o.csv {
				fmt.Fprintf(w, "%g,%d,%g,%g\n", d, m, sim.Speedup(d, m), naive.Mean/dhr.Mean)
			} else {
				fmt.Fprintf(tw, "δ=%.2f\t%s\t%.2fx\t%.2fx\n", d, harness.FmtBytes(m), sim.Speedup(d, m), naive.Mean/dhr.Mean)
			}
		}
	}
	return tw.Flush()
}

func fig4(w io.Writer, o *opts) error {
	return randomSparse(w, o, "Fig. 4", o.cluster(o.rsg), "Fig. 4 — Random Sparse Graph latency")
}

// fig5 is Fig. 4's sweep at a quarter, half and all of the nodes.
func fig5(w io.Writer, o *opts) error {
	for _, div := range []int{4, 2, 1} {
		s := o.rsg
		if s.nodes /= div; s.nodes < 1 {
			continue
		}
		c := o.cluster(s)
		if err := randomSparse(w, o, "Fig. 5", c, fmt.Sprintf("Fig. 5 — speedup scaling, %d ranks", c.Ranks())); err != nil {
			return err
		}
	}
	return nil
}

func randomSparse(w io.Writer, o *opts, fig string, c topology.Cluster, title string) error {
	fmt.Fprintf(w, "%s cluster: %s\n", fig, c)
	rows, err := harness.RandomSparseSweep(c, harness.PaperDensities, harness.MsgSizes(32, o.maxMsg), o.trials, o.seed, o.wall)
	return show(w, o, rows, err, harness.CSVComparisons, titled(title))
}

func fig6(w io.Writer, o *opts) error {
	c := o.cluster(o.moore)
	fmt.Fprintf(w, "Fig. 6 cluster: %s\n", c)
	rows, err := harness.MooreSweep(c, harness.PaperMooreShapes, o.mooreSizes, o.trials, o.wall)
	return show(w, o, rows, err, harness.CSVComparisons, titled("Fig. 6 — Moore neighborhoods"))
}

func titled(title string) func(io.Writer, []harness.Comparison) {
	return func(w io.Writer, rows []harness.Comparison) { harness.PrintComparisons(w, title, rows) }
}

// show prints a sweep's rows, as CSV under -csv when the section has a
// CSV form. A sweep error with rows to show is reported and the rows
// are kept, so one stalled cell cannot sink the run; with none it is
// the section's error.
func show[T any](w io.Writer, o *opts, rows []T, err error, csv, table func(io.Writer, []T)) error {
	if err != nil {
		if len(rows) == 0 {
			return err
		}
		fmt.Fprintf(w, "nbr-bench: %v (partial results kept)\n", err)
	}
	if o.csv && csv != nil {
		csv(w, rows)
	} else {
		table(w, rows)
	}
	return nil
}

// fig7 runs the SpMM kernel (Z = X·Y with a neighborhood allgather of
// Y) over the Table II stand-ins, or over the -mm MatrixMarket file.
func fig7(w io.Writer, o *opts) error {
	c := o.cluster(o.spmm)
	fmt.Fprintf(w, "SpMM cluster: %s, dense width k=%d\n", c, o.width)
	var mats []sparse.NamedMatrix
	if o.mm == "" {
		mats = sparse.TableII(o.seed)
	} else {
		f, err := os.Open(o.mm)
		if err != nil {
			return err
		}
		m, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %s: %d×%d, %d nonzeros\n", o.mm, m.Rows, m.Cols, m.NNZ())
		mats = []sparse.NamedMatrix{{Name: o.mm, PaperRows: m.Rows, PaperNNZ: m.NNZ(), Structure: "file", M: m}}
	}
	rows, err := harness.SpMMSweepMatrices(c, mats, o.width, o.trials, o.wall)
	return show(w, o, rows, err, harness.CSVSpMM, harness.PrintSpMM)
}

// fig8 measures the one-time pattern creation cost: Distance Halving's
// REQ/ACCEPT/DROP/EXIT negotiation (Algorithms 2 and 3) run as real
// messages, against Common Neighbor's group formation.
func fig8(w io.Writer, o *opts) error {
	c := o.cluster(o.ov)
	fmt.Fprintf(w, "overhead cluster: %s\n", c)
	rows, err := harness.OverheadSweep(c, harness.PaperDensities, o.seed, o.wall)
	return show(w, o, rows, err, harness.CSVOverhead, harness.PrintOverhead)
}

func table2(w io.Writer, o *opts) error {
	fmt.Fprintln(w, "== Table II — sparse matrices (synthetic stand-ins) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "matrix\tpaper size\tpaper nnz\tgenerated nnz\tstructure")
	for _, nm := range sparse.TableII(o.seed) {
		fmt.Fprintf(tw, "%s\t%d × %d\t%d\t%d\t%s\n", nm.Name, nm.PaperRows, nm.PaperRows, nm.PaperNNZ, nm.M.NNZ(), nm.Structure)
	}
	return tw.Flush()
}

// loadBalance is the Section IV claim: per-rank load on hub graphs.
func loadBalance(w io.Writer, o *opts) error {
	rows, err := harness.LoadBalanceSweep(o.cluster(o.rsg), []int{1, 2, 4}, 1024, o.wall)
	return show(w, o, rows, err, nil, harness.PrintLoadBalance)
}

// variance is the paper's repeated-runs methodology: the same
// experiment over independently seeded topologies and placements.
func variance(w io.Writer, o *opts) error {
	var rows []harness.VarianceRow
	for _, d := range []float64{0.1, 0.5} {
		row, err := harness.SeedVariance(o.cluster(o.rsg), d, 2048, o.varianceSeeds, o.wall)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	harness.PrintVariance(w, rows)
	return nil
}
