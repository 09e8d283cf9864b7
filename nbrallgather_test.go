package nbrallgather_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	nbr "nbrallgather"
	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// TestPublicAPIEndToEnd drives the façade the way the README's
// quickstart does: cluster → graph → algorithm → verified collective →
// measurement.
func TestPublicAPIEndToEnd(t *testing.T) {
	cluster := nbr.Niagara(2, 4) // 16 ranks
	graph, err := nbr.ErdosRenyi(cluster.Ranks(), 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := nbr.NewDistanceHalving(graph, cluster.L())
	if err != nil {
		t.Fatal(err)
	}
	const m = 32
	_, err = nbr.Run(nbr.RunConfig{Cluster: cluster, WallLimit: time.Minute}, func(p *nbr.Proc) {
		r := p.Rank()
		sbuf := bytes.Repeat([]byte{byte(r + 1)}, m)
		rbuf := make([]byte, graph.InDegree(r)*m)
		dh.Run(p, sbuf, m, rbuf)
		for i, u := range graph.In(r) {
			if rbuf[i*m] != byte(u+1) {
				panic(fmt.Sprintf("rank %d slot %d: got source %d's bytes wrong", r, i, u))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := nbr.Measure(nbr.MeasureConfig{Cluster: cluster, MsgSize: m, Trials: 2, Phantom: true}, dh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0 {
		t.Fatal("no latency measured")
	}
}

func TestPublicAPICompare(t *testing.T) {
	cluster := nbr.Niagara(2, 4)
	graph, err := nbr.ErdosRenyi(cluster.Ranks(), 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	row, err := harness.Compare(nbr.MeasureConfig{Cluster: cluster, MsgSize: 64, Trials: 1, Phantom: true}, graph, "api")
	if err != nil {
		t.Fatal(err)
	}
	if row.Naive.Mean <= 0 || row.DH.Mean <= 0 || row.CN.Mean <= 0 {
		t.Fatalf("incomplete comparison: %+v", row)
	}
}

func TestPublicAPIPatternBuilders(t *testing.T) {
	cluster := nbr.Niagara(2, 3)
	graph, err := nbr.ErdosRenyi(cluster.Ranks(), 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	central, err := pattern.Build(graph, cluster.L())
	if err != nil {
		t.Fatal(err)
	}
	if err := central.Validate(); err != nil {
		t.Fatal(err)
	}
	dist, rep, err := pattern.BuildDistributed(nbr.RunConfig{Cluster: cluster, Phantom: true}, graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Msgs() == 0 || rep.Time <= 0 {
		t.Fatal("distributed build reported no cost")
	}
	ff, err := pattern.BuildAvoiding(graph, cluster.L(), pattern.PolicyFirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ff.Validate(); err != nil {
		t.Fatalf("first-fit pattern invalid: %v", err)
	}
	op := collective.NewDistanceHalvingFromPattern(ff)
	if _, err := nbr.Measure(nbr.MeasureConfig{Cluster: cluster, MsgSize: 16, Trials: 1, Phantom: true}, op); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISpMM(t *testing.T) {
	cluster := nbr.Niagara(1, 4) // 8 ranks
	mats := nbr.TableIIMatrices(2)
	if len(mats) != 7 {
		t.Fatalf("TableIIMatrices returned %d entries", len(mats))
	}
	kernel, err := nbr.NewSpMMKernel(mats[0].M, 4, cluster.Ranks())
	if err != nil {
		t.Fatal(err)
	}
	dh, err := nbr.NewDistanceHalving(kernel.Graph(), cluster.L())
	if err != nil {
		t.Fatal(err)
	}
	ref := kernel.Reference()
	_, err = nbr.Run(nbr.RunConfig{Cluster: cluster, WallLimit: time.Minute}, func(p *nbr.Proc) {
		z := kernel.RunRank(p, dh)
		lo, _ := kernel.BlockRange(p.Rank())
		for i, v := range z {
			if v != ref[lo*4+i] {
				// float equality is fine here: identical operation
				// order between reference and distributed compute is
				// not guaranteed, so tolerate tiny drift.
				if d := v - ref[lo*4+i]; d > 1e-9 || d < -1e-9 {
					panic("Z mismatch")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIModel(t *testing.T) {
	model := perfmodel.NiagaraModel(2160, 18)
	if s := model.Speedup(0.7, 32); s < 5 {
		t.Fatalf("model predicts %vx for dense small messages, expected large", s)
	}
	if s := model.Speedup(0.05, 4<<20); s > 1 {
		t.Fatalf("model predicts %vx for sparse huge messages, expected < 1", s)
	}
}

func TestPublicAPIMoore(t *testing.T) {
	dims, err := nbr.MooreDims(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := nbr.Moore(dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 8 {
		t.Fatalf("Moore r=1 d=2 degree %d", g.OutDegree(0))
	}
}

func TestPublicAPIFromOutLists(t *testing.T) {
	g, err := vgraph.FromOutLists(3, [][]int{{1}, {2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 3 {
		t.Fatalf("Edges = %d", g.Edges())
	}
}

// TestSpeedupShapeMatchesPaper is the headline integration assertion:
// on a dense graph with small messages, Distance Halving beats both
// baselines, and its advantage over naive grows with density — the
// paper's central result, at CI scale.
func TestSpeedupShapeMatchesPaper(t *testing.T) {
	cluster := nbr.Niagara(8, 6) // 96 ranks
	cfg := nbr.MeasureConfig{Cluster: cluster, MsgSize: 64, Trials: 2, Phantom: true, WallLimit: 2 * time.Minute}
	speedup := func(d float64) float64 {
		g, err := nbr.ErdosRenyi(cluster.Ranks(), d, 9)
		if err != nil {
			t.Fatal(err)
		}
		dh, err := nbr.NewDistanceHalving(g, cluster.L())
		if err != nil {
			t.Fatal(err)
		}
		naive, err := nbr.Measure(cfg, nbr.NewNaive(g))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := nbr.Measure(cfg, dh)
		if err != nil {
			t.Fatal(err)
		}
		return naive.Mean / fast.Mean
	}
	s3, s7 := speedup(0.3), speedup(0.7)
	if s7 < 2 {
		t.Errorf("δ=0.7 small-message speedup %.2f, expected well above 1", s7)
	}
	if s7 <= s3*0.8 {
		t.Errorf("speedup shrank with density: δ=0.3 → %.2f, δ=0.7 → %.2f", s3, s7)
	}
	t.Logf("small-message DH speedup: δ=0.3 → %.2fx, δ=0.7 → %.2fx", s3, s7)
}

// TestFacadeSurface touches every exported name, so the façade cannot
// drift from the internal packages and an export nobody calls shows up
// here first.
func TestFacadeSurface(t *testing.T) {
	var (
		_ nbr.Cluster = nbr.Niagara(1, 1)
		_ *nbr.Graph
		_ nbr.Op
		_ nbr.AOp
		_ *nbr.Proc
		_ nbr.RunConfig
		_ *nbr.RunReport
		_ nbr.MeasureConfig
		_ nbr.MeasureResult
		_ *nbr.CSR
		_ *nbr.SpMMKernel
		_ []nbr.TableIIEntry
	)
	cluster := nbr.Niagara(2, 4)
	g, err := nbr.ErdosRenyi(cluster.Ranks(), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := nbr.MooreDims(cluster.Ranks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nbr.Moore(dims, 1); err != nil {
		t.Fatal(err)
	}
	aff, err := nbr.NewCommonNeighborAffinity(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nbr.Measure(nbr.MeasureConfig{Cluster: cluster, MsgSize: 8, Trials: 1, Phantom: true}, aff); err != nil {
		t.Fatal(err)
	}
	if _, err := nbr.NewSpMMKernel(nbr.TableIIMatrices(1)[0].M, 2, cluster.Ranks()); err != nil {
		t.Fatal(err)
	}
	naive := nbr.NewNaive(g)
	dh, err := nbr.NewDistanceHalving(g, cluster.L())
	if err != nil {
		t.Fatal(err)
	}
	a2a := nbr.NewNaiveAlltoall(g)
	dhA2a, err := nbr.NewDistanceHalvingAlltoall(g, cluster.L())
	if err != nil {
		t.Fatal(err)
	}
	_, err = nbr.Run(nbr.RunConfig{Cluster: cluster, Phantom: true}, func(p *nbr.Proc) {
		a2a.RunA(p, nil, 16, nil)
		dhA2a.RunA(p, nil, 16, nil)
		naive.Run(p, nil, 8, nil)
		dh.Run(p, nil, 8, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuildingBlocks drives, through their own packages, the building
// blocks the façade does not export: the flat cluster, the cost-model
// presets, the Cartesian graph, consecutive-group Common Neighbor, the
// leader-based baseline and the persistent allgather.
func TestBuildingBlocks(t *testing.T) {
	flat := topology.Flat(2, 2, 2)
	if flat.Groups() != 1 {
		t.Fatal("Flat cluster has groups")
	}
	if err := netmodel.NiagaraParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := netmodel.UniformParams().Validate(); err != nil {
		t.Fatal(err)
	}
	cart, err := vgraph.Cartesian([]int{4, 4}, true)
	if err != nil || cart.OutDegree(0) != 4 {
		t.Fatalf("Cartesian: %v", err)
	}
	cluster := nbr.Niagara(2, 4)
	g, err := nbr.ErdosRenyi(cluster.Ranks(), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collective.NewCommonNeighbor(g, 4); err != nil {
		t.Fatal(err)
	}
	lb, err := collective.NewLeaderBased(g, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nbr.Measure(nbr.MeasureConfig{Cluster: cluster, MsgSize: 8, Trials: 1, Phantom: true}, lb); err != nil {
		t.Fatal(err)
	}
	if _, err := collective.NewLeaderBasedK(g, cluster, 2); err != nil {
		t.Fatal(err)
	}
	_, err = nbr.Run(nbr.RunConfig{Cluster: cluster, Phantom: true}, func(p *nbr.Proc) {
		dh, err := nbr.NewDistanceHalving(g, cluster.L())
		if err != nil {
			panic(err)
		}
		req, err := collective.AllgatherInit(dh, p, nil, 8, nil)
		if err != nil {
			panic(err)
		}
		req.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
}
