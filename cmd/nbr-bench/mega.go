package main

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/prof"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The mega section exercises the event engine at communicator sizes
// the goroutine-per-rank driver was never tuned for: a 2-D Moore
// neighborhood over ≥100k ranks with phantom payloads, measured under
// the naive, Distance Halving and Common Neighbor algorithms. Payload
// buffers would be ~100 GB at this scale, so the run only makes sense
// phantom; the event engine keeps it deterministic, and Go heap
// statistics are captured around every measurement so the table
// doubles as a memory regression baseline.

// megaCNK is the Common Neighbor group size used at mega scale. The
// best-K sweep (six measurements per cell) is deliberately skipped:
// one fixed consecutive-block K keeps the run's wall-clock bounded.
const megaCNK = 8

// megaCluster shapes a Niagara-like machine hosting exactly n ranks
// (32 ranks per socket, two sockets per node).
func megaCluster(n int) (topology.Cluster, error) {
	const perNode = 64
	if n < perNode || n%perNode != 0 {
		return topology.Cluster{}, fmt.Errorf("mega rank count %d must be a positive multiple of %d", n, perNode)
	}
	return topology.Niagara(n/perNode, 32), nil
}

func mega(w io.Writer, o *opts) error {
	c, err := megaCluster(o.megaRanks)
	if err != nil {
		return err
	}
	dims, err := vgraph.MooreDims(o.megaRanks, 2)
	if err != nil {
		return err
	}
	start := time.Now()
	g, err := vgraph.Moore(dims, 1)
	if err != nil {
		return err
	}
	graphWall := time.Since(start)
	eng, err := mpirt.ResolveEngine(mpirt.EngineDefault) // what the zero harness.Config.Engine runs on
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mega sweep: %d ranks (Moore %v r=1, %d neighbors/rank) on %s, engine %s, phantom %d B payloads\n",
		g.N(), dims, g.OutDegree(0), c, eng, o.megaMsg)
	cfg := harness.Config{Cluster: c, MsgSize: o.megaMsg, Trials: 1, Phantom: true, WallLimit: o.wall}

	t0 := time.Now()
	dh, err := collective.NewDistanceHalving(g, c.L())
	if err != nil {
		return err
	}
	dhWall := time.Since(t0)
	t0 = time.Now()
	cn, err := collective.NewCommonNeighbor(g, megaCNK)
	if err != nil {
		return err
	}
	cnWall := time.Since(t0)
	fmt.Fprintf(w, "mega set-up: graph %s, DH build %s, CN build %s\n",
		graphWall.Round(time.Millisecond), dhWall.Round(time.Millisecond), cnWall.Round(time.Millisecond))
	cells := []struct {
		algo string
		cnk  int
		op   collective.Op
	}{
		{"naive", 0, collective.NewNaive(g)},
		{"distance-halving", 0, dh},
		{"common-neighbor", megaCNK, cn},
	}
	// Cells run sequentially: at this scale each measurement owns the
	// whole heap, and sequencing keeps the per-cell memory statistics
	// attributable. Heap live is what the run kept reachable (each
	// measurement starts from a forced GC), churn its total allocation,
	// sys the OS-visible footprint after it.
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algo\tCN K\tvirtual\tmsgs\tbytes\tmax rank msgs\twall\theap live\tchurn\tsys\tGCs")
	for _, cell := range cells {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := harness.Measure(cfg, cell.op)
		if err != nil {
			return fmt.Errorf("mega %s: %w", cell.algo, err)
		}
		runtime.ReadMemStats(&after)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%s\t%.1f MiB\t%.1f MiB\t%.1f MiB\t%d\n",
			cell.algo, cell.cnk, harness.FmtTime(res.Mean), res.MsgsPerTrial, res.BytesPerTrial, res.MaxRankMsgs,
			res.Wall.Round(time.Millisecond), mib(after.HeapAlloc), mib(after.TotalAlloc-before.TotalAlloc),
			mib(after.Sys), after.NumGC-before.NumGC)
	}
	tw.Flush()
	// What ROADMAP item 4's target is stated in.
	fmt.Fprintf(w, "mega total: wall %s, peak RSS %.0f MiB\n", time.Since(start).Round(time.Millisecond), prof.PeakRSSMiB())
	return nil
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
