// Benchmarks regenerating every table and figure of the paper at
// CI-friendly scale, plus ablations of the design choices DESIGN.md
// calls out. Reported custom metrics:
//
//	sim_ms/op   — virtual-time collective latency (the paper's y axis)
//	speedup     — naive latency / algorithm latency (Figs. 5, 6, 7)
//	msgs/op     — messages per collective (Sec. V message-count claims)
//
// Paper-scale runs (2160/2048 ranks) are driven by the cmd/ tools; see
// EXPERIMENTS.md for the recorded paper-vs-measured values.
package nbrallgather_test

import (
	"fmt"
	"testing"
	"time"

	nbr "nbrallgather"
	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/spmm"
)

// benchCluster is the scaled-down stand-in for the paper's 60-node
// testbed: 8 two-socket nodes, 6 ranks per socket, 96 ranks.
func benchCluster() nbr.Cluster { return nbr.Niagara(8, 6) }

func benchGraph(b *testing.B, c nbr.Cluster, delta float64) *nbr.Graph {
	b.Helper()
	g, err := nbr.ErdosRenyi(c.Ranks(), delta, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func measure(b *testing.B, c nbr.Cluster, op nbr.Op, m int) nbr.MeasureResult {
	b.Helper()
	res, err := nbr.Measure(nbr.MeasureConfig{
		Cluster: c, MsgSize: m, Trials: 1, Phantom: true,
		WallLimit: 120 * time.Second,
	}, op)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig2PerfModel evaluates the Section V analytical model over
// the full Fig. 2 grid (pure math; regenerates the figure's surfaces).
func BenchmarkFig2PerfModel(b *testing.B) {
	b.ReportAllocs()
	p := perfmodel.NiagaraModel(2160, 18)
	sizes := harness.MsgSizes(8, 4<<20)
	var pts []perfmodel.Fig2Point
	for i := 0; i < b.N; i++ {
		pts = perfmodel.Fig2Series(p, harness.PaperDensities, sizes)
	}
	b.ReportMetric(pts[len(pts)-1].Speedup, "dense-4MB-speedup")
	b.ReportMetric(p.Speedup(0.7, 32), "dense-32B-speedup")
}

// BenchmarkFig4RandomSparseLatency regenerates Fig. 4's latency curves
// (DH vs default Open MPI across message sizes, δ = 0.3) at bench
// scale.
func BenchmarkFig4RandomSparseLatency(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.3)
	dh, err := nbr.NewDistanceHalving(g, c.L())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{32, 2048, 65536} {
		for _, tc := range []struct {
			name string
			op   nbr.Op
		}{{"naive", nbr.NewNaive(g)}, {"dh", dh}} {
			b.Run(fmt.Sprintf("%s/m=%d", tc.name, m), func(b *testing.B) {
				b.ReportAllocs()
				var last nbr.MeasureResult
				for i := 0; i < b.N; i++ {
					last = measure(b, c, tc.op, m)
				}
				b.ReportMetric(last.Mean*1e3, "sim_ms/op")
				b.ReportMetric(float64(last.MsgsPerTrial), "msgs/op")
			})
		}
	}
}

// BenchmarkFig5SpeedupScaling regenerates Fig. 5's speedup-vs-scale
// story: DH and CN speedups over naive at two communicator sizes.
func BenchmarkFig5SpeedupScaling(b *testing.B) {
	for _, nodes := range []int{4, 8} {
		c := nbr.Niagara(nodes, 6)
		g := benchGraph(b, c, 0.5)
		dh, err := nbr.NewDistanceHalving(g, c.L())
		if err != nil {
			b.Fatal(err)
		}
		cn, err := collective.NewCommonNeighbor(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ranks=%d", c.Ranks()), func(b *testing.B) {
			b.ReportAllocs()
			var sDH, sCN float64
			for i := 0; i < b.N; i++ {
				naive := measure(b, c, nbr.NewNaive(g), 1024)
				sDH = naive.Mean / measure(b, c, dh, 1024).Mean
				sCN = naive.Mean / measure(b, c, cn, 1024).Mean
			}
			b.ReportMetric(sDH, "dh-speedup")
			b.ReportMetric(sCN, "cn-speedup")
		})
	}
}

// BenchmarkFig6Moore regenerates Fig. 6: Moore neighborhoods at the
// paper's small/medium message points.
func BenchmarkFig6Moore(b *testing.B) {
	c := benchCluster()
	for _, shape := range []harness.MooreShape{{R: 1, D: 2}, {R: 2, D: 2}, {R: 1, D: 3}} {
		dims, err := nbr.MooreDims(c.Ranks(), shape.D)
		if err != nil {
			b.Fatal(err)
		}
		g, err := nbr.Moore(dims, shape.R)
		if err != nil {
			b.Fatal(err)
		}
		dh, err := nbr.NewDistanceHalving(g, c.L())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []int{4 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("%s/m=%d", shape, m), func(b *testing.B) {
				b.ReportAllocs()
				var s float64
				for i := 0; i < b.N; i++ {
					naive := measure(b, c, nbr.NewNaive(g), m)
					s = naive.Mean / measure(b, c, dh, m).Mean
				}
				b.ReportMetric(s, "dh-speedup")
			})
		}
	}
}

// BenchmarkFig7SpMM regenerates Fig. 7 for the small Table II
// stand-ins (the full set runs via nbr-bench -fig 7).
func BenchmarkFig7SpMM(b *testing.B) {
	c := nbr.Niagara(4, 6) // 48 ranks ≤ smallest matrix order (128)
	for _, nm := range nbr.TableIIMatrices(1) {
		if nm.M.Rows > 300 {
			continue // keep bench iterations fast; cmd runs all seven
		}
		kern, err := nbr.NewSpMMKernel(nm.M, 16, c.Ranks())
		if err != nil {
			b.Fatal(err)
		}
		g := kern.Graph()
		dh, err := nbr.NewDistanceHalving(g, c.L())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(nm.Name, func(b *testing.B) {
			b.ReportAllocs()
			var s float64
			for i := 0; i < b.N; i++ {
				naive := benchSpMMOnce(b, c, kern, nbr.NewNaive(g))
				s = naive / benchSpMMOnce(b, c, kern, dh)
			}
			b.ReportMetric(s, "dh-speedup")
		})
	}
}

func benchSpMMOnce(b *testing.B, c nbr.Cluster, k *spmm.Kernel, op nbr.Op) float64 {
	b.Helper()
	var t float64
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true, WallLimit: 60 * time.Second}, func(p *mpirt.Proc) {
		p.SyncResetTime()
		k.RunRank(p, op)
		v := p.CollectiveTime()
		if p.Rank() == 0 {
			t = v
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkFig8Overhead regenerates Fig. 8: distributed
// pattern-creation cost of DH vs the CN baseline.
func BenchmarkFig8Overhead(b *testing.B) {
	c := benchCluster()
	for _, d := range []float64{0.1, 0.5} {
		b.Run(fmt.Sprintf("delta=%.1f", d), func(b *testing.B) {
			b.ReportAllocs()
			var rows []harness.OverheadRow
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = harness.OverheadSweep(c, []float64{d}, 42, 120*time.Second)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Ratio(), "dh/cn-overhead")
			b.ReportMetric(rows[0].SuccessRate, "agent-success")
		})
	}
}

// BenchmarkTableIIGeneration regenerates the Table II stand-in
// matrices.
func BenchmarkTableIIGeneration(b *testing.B) {
	b.ReportAllocs()
	var nnz int
	for i := 0; i < b.N; i++ {
		nnz = 0
		for _, nm := range nbr.TableIIMatrices(int64(i)) {
			nnz += nm.M.NNZ()
		}
	}
	b.ReportMetric(float64(nnz), "total-nnz")
}

// BenchmarkAblationPatternBuilder compares the deterministic central
// builder with the full distributed negotiation (identical output,
// different construction cost).
func BenchmarkAblationPatternBuilder(b *testing.B) {
	c := nbr.Niagara(4, 6)
	g := benchGraph(b, c, 0.3)
	b.Run("central", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pattern.Build(g, c.L()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("distributed", func(b *testing.B) {
		b.ReportAllocs()
		var sim float64
		for i := 0; i < b.N; i++ {
			_, rep, err := pattern.BuildDistributed(mpirt.Config{Cluster: c, Phantom: true}, g)
			if err != nil {
				b.Fatal(err)
			}
			sim = rep.Time
		}
		b.ReportMetric(sim*1e3, "sim_ms/op")
	})
}

// BenchmarkAblationAgentPolicy compares the paper's load-aware agent
// selection with a first-fit baseline.
func BenchmarkAblationAgentPolicy(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.5)
	for _, tc := range []struct {
		name   string
		policy pattern.Policy
	}{{"load-aware", pattern.PolicyLoadAware}, {"first-fit", pattern.PolicyFirstFit}} {
		pat, err := pattern.BuildAvoiding(g, c.L(), tc.policy, nil)
		if err != nil {
			b.Fatal(err)
		}
		op := collective.NewDistanceHalvingFromPattern(pat)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var last nbr.MeasureResult
			for i := 0; i < b.N; i++ {
				last = measure(b, c, op, 2048)
			}
			b.ReportMetric(last.Mean*1e3, "sim_ms/op")
			b.ReportMetric(float64(last.OffSocketMsgs), "offsocket-msgs")
		})
	}
}

// BenchmarkAblationStopThreshold compares stopping the halving at the
// socket size L against halving all the way down to single ranks.
func BenchmarkAblationStopThreshold(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.5)
	for _, l := range []int{c.L(), 1} {
		pat, err := pattern.Build(g, l)
		if err != nil {
			b.Fatal(err)
		}
		op := collective.NewDistanceHalvingFromPattern(pat)
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			b.ReportAllocs()
			var last nbr.MeasureResult
			for i := 0; i < b.N; i++ {
				last = measure(b, c, op, 2048)
			}
			b.ReportMetric(last.Mean*1e3, "sim_ms/op")
		})
	}
}

// BenchmarkAblationFlatNetwork asks whether the DH win survives on a
// topology-blind network (uniform α/β, no NIC or global-link
// contention).
func BenchmarkAblationFlatNetwork(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.5)
	dh, err := nbr.NewDistanceHalving(g, c.L())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		params netmodel.Params
	}{{"niagara", netmodel.NiagaraParams()}, {"flat", netmodel.UniformParams()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var s float64
			for i := 0; i < b.N; i++ {
				cfg := nbr.MeasureConfig{Cluster: c, Params: tc.params, MsgSize: 2048, Trials: 1, Phantom: true}
				naive, err := nbr.Measure(cfg, nbr.NewNaive(g))
				if err != nil {
					b.Fatal(err)
				}
				dhr, err := nbr.Measure(cfg, dh)
				if err != nil {
					b.Fatal(err)
				}
				s = naive.Mean / dhr.Mean
			}
			b.ReportMetric(s, "dh-speedup")
		})
	}
}

// BenchmarkExtAllgatherv exercises the variable-size extension: a
// ragged size distribution (half the ranks contribute 16× more than
// the rest) under naive and Distance Halving.
func BenchmarkExtAllgatherv(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.4)
	counts := make([]int, c.Ranks())
	for i := range counts {
		if i%2 == 0 {
			counts[i] = 4096
		} else {
			counts[i] = 256
		}
	}
	dh, err := nbr.NewDistanceHalving(g, c.L())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   nbr.Op
	}{{"naive", nbr.NewNaive(g)}, {"dh", dh}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sim float64
			for i := 0; i < b.N; i++ {
				_, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true, WallLimit: time.Minute}, func(p *mpirt.Proc) {
					p.SyncResetTime()
					tc.op.RunV(p, nil, counts, nil)
					v := p.CollectiveTime()
					if p.Rank() == 0 {
						sim = v
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sim*1e3, "sim_ms/op")
		})
	}
}

// BenchmarkExtAlltoall exercises the future-work alltoall prototype:
// naive per-edge sends vs agent-relayed segment combining.
func BenchmarkExtAlltoall(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.5)
	dh, err := nbr.NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   nbr.AOp
	}{{"naive", nbr.NewNaiveAlltoall(g)}, {"dh", dh}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sim float64
			var msgs int64
			for i := 0; i < b.N; i++ {
				rep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true, WallLimit: time.Minute}, func(p *mpirt.Proc) {
					p.SyncResetTime()
					tc.op.RunA(p, nil, 512, nil)
					v := p.CollectiveTime()
					if p.Rank() == 0 {
						sim = v
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs = rep.Msgs()
			}
			b.ReportMetric(sim*1e3, "sim_ms/op")
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkAblationCNGrouping compares the Common Neighbor baseline's
// two grouping strategies: consecutive rank blocks vs affinity
// (shared-neighbor) matching.
func BenchmarkAblationCNGrouping(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.5)
	cons, err := collective.NewCommonNeighbor(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	aff, err := nbr.NewCommonNeighborAffinity(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   nbr.Op
	}{{"consecutive", cons}, {"affinity", aff}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var last nbr.MeasureResult
			for i := 0; i < b.N; i++ {
				last = measure(b, c, tc.op, 2048)
			}
			b.ReportMetric(last.Mean*1e3, "sim_ms/op")
			b.ReportMetric(float64(last.MsgsPerTrial), "msgs/op")
		})
	}
}

// BenchmarkAblationLeaderBased compares the Distance Halving algorithm
// against the hierarchical leader-based design (the related work's
// large-message approach) across the message-size spectrum. The
// single-leader variant collapses inter-node message counts but its
// leader's port serializes the gather/distribute traffic, so it wins
// in the latency-bound regime and loses once messages are
// bandwidth-bound — the bottleneck that motivated the original
// design's multiple load-balanced leaders.
func BenchmarkAblationLeaderBased(b *testing.B) {
	c := benchCluster()
	g := benchGraph(b, c, 0.5)
	dh, err := nbr.NewDistanceHalving(g, c.L())
	if err != nil {
		b.Fatal(err)
	}
	lb1, err := collective.NewLeaderBased(g, c)
	if err != nil {
		b.Fatal(err)
	}
	lb4, err := collective.NewLeaderBasedK(g, c, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{2048, 256 << 10} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var sDH, sLB1, sLB4 float64
			for i := 0; i < b.N; i++ {
				naive := measure(b, c, nbr.NewNaive(g), m)
				sDH = naive.Mean / measure(b, c, dh, m).Mean
				sLB1 = naive.Mean / measure(b, c, lb1, m).Mean
				sLB4 = naive.Mean / measure(b, c, lb4, m).Mean
			}
			b.ReportMetric(sDH, "dh-speedup")
			b.ReportMetric(sLB1, "leader1-speedup")
			b.ReportMetric(sLB4, "leader4-speedup")
		})
	}
}

// BenchmarkPatternBuildScaling measures central pattern construction
// across communicator sizes (host time; the builder is the one-time
// setup cost).
func BenchmarkPatternBuildScaling(b *testing.B) {
	for _, nodes := range []int{4, 8, 16} {
		c := nbr.Niagara(nodes, 6)
		g := benchGraph(b, c, 0.3)
		b.Run(fmt.Sprintf("ranks=%d", c.Ranks()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pattern.Build(g, c.L()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
