package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The -json mode emits a machine-readable benchmark snapshot: one cell
// per algorithm at a lean Fig. 4 configuration (two densities × two
// message sizes, phantom payloads), plus the fail-stop recovery
// overhead of every self-healing algorithm with one injected crash.
// Message and byte counts are exactly deterministic; the virtual times
// carry the few percent of run-to-run jitter that shared-resource
// arbitration order introduces (see README "How performance is
// measured").

type benchCell struct {
	Density  float64 `json:"density"`
	MsgBytes int     `json:"msg_bytes"`
	Algo     string  `json:"algo"`
	CNK      int     `json:"cn_k,omitempty"`
	TimeS    float64 `json:"time_s"`
	// PlanS is the host-side plan negotiation time, split out from the
	// virtual collective latency (see harness.Result.PlanWall).
	PlanS float64 `json:"plan_s"`
	Msgs  int64   `json:"msgs"`
	Bytes int64   `json:"bytes"`
}

type benchRecovery struct {
	Algo        string  `json:"algo"`
	Density     float64 `json:"density"`
	MsgBytes    int     `json:"msg_bytes"`
	VictimRank  int     `json:"victim_rank"`
	BaselineS   float64 `json:"baseline_s"`
	FailedS     float64 `json:"failed_s"`
	OverheadS   float64 `json:"overhead_s"`
	Recovered   bool    `json:"recovered"`
	Rounds      int     `json:"rounds"`
	Survivors   int     `json:"survivors"`
	DeadRanks   []int   `json:"dead_ranks"`
	Detections  int64   `json:"detections"`
	DetectTimeS float64 `json:"detect_time_s"`
	Repair      string  `json:"repair"`
}

type benchDoc struct {
	Schema   string          `json:"schema"`
	Cluster  string          `json:"cluster"`
	Ranks    int             `json:"ranks"`
	Trials   int             `json:"trials"`
	Seed     int64           `json:"seed"`
	Fig4     []benchCell     `json:"fig4"`
	Recovery []benchRecovery `json:"recovery"`
	// Micro holds the mpirt hot-path micro-benchmarks (-micro);
	// ns/op and allocs/op straight from testing.Benchmark.
	Micro []microBench `json:"micro,omitempty"`
}

var (
	jsonDensities = []float64{0.1, 0.5}
	jsonMsgSizes  = []int{1 << 10, 1 << 16}
)

func runJSON(out io.Writer, path string, c topology.Cluster, trials int, seed int64, wall time.Duration, micro, assertZeroAlloc bool) error {
	doc := benchDoc{
		Schema:  "nbr-bench/pr5",
		Cluster: c.String(),
		Ranks:   c.Ranks(),
		Trials:  trials,
		Seed:    seed,
	}
	// Fig. 4 cells run concurrently on the sweep pool; printing and the
	// doc rows happen afterwards in cell order, so the report is
	// byte-identical to the sequential loop.
	type fig4Cell struct {
		g *vgraph.Graph
		d float64
		m int
	}
	var fig4Cells []fig4Cell
	for _, d := range jsonDensities {
		g, err := vgraph.ErdosRenyi(c.Ranks(), d, seed+int64(d*1000))
		if err != nil {
			return err
		}
		for _, m := range jsonMsgSizes {
			fig4Cells = append(fig4Cells, fig4Cell{g, d, m})
		}
	}
	cmps, err := sweep.Map(context.Background(), len(fig4Cells), func(i int) (harness.Comparison, error) {
		fc := fig4Cells[i]
		cfg := harness.Config{Cluster: c, MsgSize: fc.m, Trials: trials, Phantom: true, WallLimit: wall}
		return harness.Compare(cfg, fc.g, fmt.Sprintf("delta=%g", fc.d))
	})
	if err != nil {
		var agg *sweep.Error
		if errors.As(err, &agg) {
			err = agg.First().Err
		}
		return err
	}
	for i, cmp := range cmps {
		fc := fig4Cells[i]
		cell := func(algo string, k int, r harness.Result) benchCell {
			return benchCell{
				Density: fc.d, MsgBytes: fc.m, Algo: algo, CNK: k,
				TimeS: r.Mean, PlanS: r.PlanWall.Seconds(),
				Msgs: r.MsgsPerTrial, Bytes: r.BytesPerTrial,
			}
		}
		doc.Fig4 = append(doc.Fig4,
			cell("naive", 0, cmp.Naive),
			cell("distance-halving", 0, cmp.DH),
			cell("common-neighbor", cmp.CNK, cmp.CN))
		fmt.Fprintf(out, "fig4 delta=%g m=%d: naive %.3gs, dh %.3gs, cn(k=%d) %.3gs\n",
			fc.d, fc.m, cmp.Naive.Mean, cmp.DH.Mean, cmp.CNK, cmp.CN.Mean)
	}

	// Recovery overhead: one mid-schedule crash per self-healing
	// algorithm at a single representative cell.
	const recDensity, recMsg = 0.5, 1 << 10
	g, err := vgraph.ErdosRenyi(c.Ranks(), recDensity, seed+int64(recDensity*1000))
	if err != nil {
		return err
	}
	ops, err := allOps(g, c, 2)
	if err != nil {
		return err
	}
	kill := mpirt.Kill{Rank: c.Ranks() / 2, AfterOps: 4}
	cfg := harness.Config{Cluster: c, MsgSize: recMsg, Phantom: true, WallLimit: wall}
	recs, err := sweep.Map(context.Background(), len(ops), func(i int) (harness.RecoveryResult, error) {
		res, err := harness.MeasureRecovery(cfg, ops[i], kill)
		if err != nil {
			return res, fmt.Errorf("recovery %s: %w", ops[i].Name(), err)
		}
		return res, nil
	})
	if err != nil {
		var agg *sweep.Error
		if errors.As(err, &agg) {
			err = agg.First().Err
		}
		return err
	}
	for i, res := range recs {
		op := ops[i]
		doc.Recovery = append(doc.Recovery, benchRecovery{
			Algo: op.Name(), Density: recDensity, MsgBytes: recMsg,
			VictimRank: kill.Rank,
			BaselineS:  res.Baseline, FailedS: res.Failed, OverheadS: res.Overhead,
			Recovered: res.Recovered, Rounds: res.Rounds, Survivors: res.Survivors,
			DeadRanks: res.DeadRanks, Detections: res.Detections,
			DetectTimeS: res.DetectTime, Repair: res.Repair,
		})
		fmt.Fprintf(out, "recovery %s: %s\n", op.Name(), res)
	}

	if micro {
		doc.Micro = runMicro(out)
		if assertZeroAlloc {
			if err := checkZeroAlloc(doc.Micro); err != nil {
				return err
			}
		}
	}

	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d fig4 cells, %d recovery rows)\n", path, len(doc.Fig4), len(doc.Recovery))
	return nil
}
