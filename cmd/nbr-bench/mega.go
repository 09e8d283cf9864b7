package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/prof"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The -mega mode exercises the event engine at communicator sizes the
// goroutine-per-rank default was never tuned for: a 2-D Moore
// neighborhood over ≥100k ranks with phantom payloads, measured under
// the naive, Distance Halving and Common Neighbor algorithms. Payload
// buffers would be ~100 GB at this scale, so the run only makes sense
// phantom; the event engine keeps it deterministic, and Go heap
// statistics are captured around every measurement so the snapshot
// doubles as a memory regression baseline.

// megaCNK is the Common Neighbor group size used at mega scale. The
// best-K sweep (six measurements per cell) is deliberately skipped:
// one fixed consecutive-block K keeps the run's wall-clock bounded.
const megaCNK = 8

type megaMem struct {
	// HeapLiveBytes is the live heap after the run, without an
	// intervening collection (each measurement starts from a forced
	// GC, so this tracks what the run itself kept reachable).
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// AllocBytes is the total allocation churn of the measurement.
	AllocBytes uint64 `json:"alloc_bytes"`
	// SysBytes is the OS-visible footprint after the run.
	SysBytes uint64 `json:"sys_bytes"`
	// NumGC is the number of collections the measurement triggered.
	NumGC uint32 `json:"num_gc"`
}

type megaRow struct {
	Algo        string  `json:"algo"`
	CNK         int     `json:"cn_k,omitempty"`
	TimeS       float64 `json:"time_s"`
	Msgs        int64   `json:"msgs"`
	Bytes       int64   `json:"bytes"`
	MaxRankMsgs int64   `json:"max_rank_msgs"`
	WallMS      int64   `json:"wall_ms"`
	Mem         megaMem `json:"mem"`
}

type megaDoc struct {
	Schema   string `json:"schema"`
	Engine   string `json:"engine"`
	Cluster  string `json:"cluster"`
	Ranks    int    `json:"ranks"`
	Dims     []int  `json:"dims"`
	Radius   int    `json:"radius"`
	MsgBytes int    `json:"msg_bytes"`
	// Host wall of the phases that precede the cells: graph
	// generation, DH negotiation + emit, CN build.
	GraphMS   int64     `json:"graph_ms"`
	DHBuildMS int64     `json:"dh_build_ms"`
	CNBuildMS int64     `json:"cn_build_ms"`
	Rows      []megaRow `json:"rows"`
}

// megaCluster shapes a Niagara-like machine hosting exactly n ranks
// (32 ranks per socket, two sockets per node).
func megaCluster(n int) (topology.Cluster, error) {
	const perNode = 64
	if n < perNode || n%perNode != 0 {
		return topology.Cluster{}, fmt.Errorf("mega rank count %d must be a positive multiple of %d", n, perNode)
	}
	return topology.Niagara(n/perNode, 32), nil
}

func runMega(out io.Writer, path string, ranks, msgSize int, wall time.Duration) error {
	if path == "" {
		return fmt.Errorf("-mega requires -json")
	}
	c, err := megaCluster(ranks)
	if err != nil {
		return err
	}
	dims, err := vgraph.MooreDims(ranks, 2)
	if err != nil {
		return err
	}
	start := time.Now()
	t0 := start
	g, err := vgraph.Moore(dims, 1)
	if err != nil {
		return err
	}
	graphWall := time.Since(t0)
	eng, err := mpirt.ResolveEngine(mpirt.EngineDefault) // what the zero harness.Config.Engine runs on
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mega sweep: %d ranks (Moore %v r=1, %d neighbors/rank), engine %s, phantom %d B payloads\n",
		g.N(), dims, g.OutDegree(0), eng, msgSize)

	doc := megaDoc{
		Schema:   "nbr-bench/pr6-mega",
		Engine:   string(eng),
		Cluster:  c.String(),
		Ranks:    g.N(),
		Dims:     dims,
		Radius:   1,
		MsgBytes: msgSize,
		GraphMS:  graphWall.Milliseconds(),
	}
	cfg := harness.Config{
		Cluster:   c,
		MsgSize:   msgSize,
		Trials:    1,
		Phantom:   true,
		WallLimit: wall,
	}

	t0 = time.Now()
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
	doc.DHBuildMS, doc.CNBuildMS = dhWall.Milliseconds(), cnWall.Milliseconds()
	fmt.Fprintf(out, "mega set-up: graph %s, DH build %s, CN build %s\n",
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
	// attributable.
	for _, cell := range cells {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := harness.Measure(cfg, cell.op)
		if err != nil {
			return fmt.Errorf("mega %s: %w", cell.algo, err)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		row := megaRow{
			Algo: cell.algo, CNK: cell.cnk,
			TimeS: res.Mean, Msgs: res.MsgsPerTrial, Bytes: res.BytesPerTrial,
			MaxRankMsgs: res.MaxRankMsgs, WallMS: res.Wall.Milliseconds(),
			Mem: megaMem{
				HeapLiveBytes: after.HeapAlloc,
				AllocBytes:    after.TotalAlloc - before.TotalAlloc,
				SysBytes:      after.Sys,
				NumGC:         after.NumGC - before.NumGC,
			},
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "mega %s: %.3gs virtual, %d msgs, wall %s, heap %d MiB live / %d MiB churned\n",
			cell.algo, row.TimeS, row.Msgs, res.Wall.Round(time.Millisecond),
			row.Mem.HeapLiveBytes>>20, row.Mem.AllocBytes>>20)
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
	fmt.Fprintf(out, "wrote %s (%d mega rows)\n", path, len(doc.Rows))
	// What ROADMAP item 4's target is stated in; stdout only.
	fmt.Fprintf(out, "mega total: wall %s, peak RSS %.0f MiB\n", time.Since(start).Round(time.Millisecond), prof.PeakRSSMiB())
	return nil
}
