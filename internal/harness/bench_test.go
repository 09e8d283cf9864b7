package harness

import (
	"runtime"
	"testing"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// benchMeasure times one Measure per algorithm — naive, DH, CN(K=4), as
// nbr-perf's cell runs them — and reports what the simulator is bought
// for: simulated messages per host second, and heap allocations per
// simulated message (runtime start-up included). Each algorithm runs
// twice, as Measure runs it and with the slot hints of its passes
// stripped (every message through the mailbox's hashed lists): the
// after and the before of static matching, side by side. Each iteration
// puts its rank-buffer slab back, as Measure does.
func benchMeasure(b *testing.B, cfg Config, g *vgraph.Graph) {
	dh, err := collective.NewDistanceHalving(g, cfg.Cluster.L())
	if err != nil {
		b.Fatal(err)
	}
	cn, err := collective.NewCommonNeighbor(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range []collective.Op{collective.NewNaive(g), dh, cn} {
		for _, leg := range []struct {
			name string
			on   func(*mpirt.Proc) mpirt.Endpoint
		}{{op.Name(), nil}, {op.Name() + "-unhinted", stripHints}} {
			b.Run(leg.name, func(b *testing.B) {
				var before, after runtime.MemStats
				var msgs int64
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ms, rep, err := runMeasurement(cfg, cfg.runtime(), op, cfg.Trials, leg.on)
					if err != nil {
						b.Fatal(err)
					}
					mpirt.PutSlab(ms.slab)
					msgs += rep.Msgs()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
			})
		}
	}
}

// BenchmarkMeasureMoore10k is the moore10k-scale cell: per-rank start-up
// and the event loop dominate.
func BenchmarkMeasureMoore10k(b *testing.B) {
	cfg, g := moore10k(b)
	benchMeasure(b, cfg, g)
}

// BenchmarkMeasureER540 is the rsg540-lat cell: 540 ranks, δ = 0.3,
// 1 KiB phantom, three trials — matching and the loop dominate.
func BenchmarkMeasureER540(b *testing.B) {
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchMeasure(b, Config{Cluster: topology.Niagara(15, 18), MsgSize: 1 << 10, Trials: 3, Phantom: true, Engine: mpirt.EngineEvent}, g)
}

// BenchmarkMeasureReal216 is the rsg216-real cell: 216 ranks, δ = 0.3,
// 8 KiB real payloads, four trials — payload copies and the rank
// buffers dominate.
func BenchmarkMeasureReal216(b *testing.B) {
	g, err := vgraph.ErdosRenyi(216, 0.3, 1_000_003)
	if err != nil {
		b.Fatal(err)
	}
	benchMeasure(b, Config{Cluster: topology.Niagara(6, 18), MsgSize: 8 << 10, Trials: 4, Engine: mpirt.EngineEvent}, g)
}
