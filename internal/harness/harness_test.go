package harness

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/sparse"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

func testCluster() topology.Cluster {
	return topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
}

func testGraph(t *testing.T, c topology.Cluster, d float64) *vgraph.Graph {
	t.Helper()
	g, err := vgraph.ErdosRenyi(c.Ranks(), d, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMeasureBasics(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.4)
	res, err := Measure(Config{Cluster: c, MsgSize: 256, Trials: 4, Phantom: true}, collective.NewNaive(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4 {
		t.Fatalf("Trials = %d", res.Trials)
	}
	if res.Mean <= 0 || res.Min <= 0 || res.Max < res.Min || res.Mean < res.Min || res.Mean > res.Max {
		t.Fatalf("stats inconsistent: %+v", res)
	}
	if res.MsgsPerTrial != int64(g.Edges()) {
		t.Fatalf("naive msgs/trial %d, want %d edges", res.MsgsPerTrial, g.Edges())
	}
	if res.BytesPerTrial != int64(g.Edges()*256) {
		t.Fatalf("naive bytes/trial %d", res.BytesPerTrial)
	}
}

func TestMeasureRealPayloads(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.4)
	res, err := Measure(Config{Cluster: c, MsgSize: 64, Trials: 2}, collective.NewNaive(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0 {
		t.Fatal("no time measured")
	}
}

// TestMeasureRealReusesRankBuffers: a real-payload Measure cuts its
// rank buffers from a pooled slab, so a second Measure of the same shape
// reports the same Result and allocates a small fraction of them (the
// race detector drops pooled items at random, so there only the Results
// are compared).
func TestMeasureRealReusesRankBuffers(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.4)
	op, err := collective.NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: c, MsgSize: 32 << 10, Trials: 2}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection may empty the pool between the runs
	first, err := Measure(cfg, op)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := Measure(cfg, op)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	first.Wall, second.Wall = 0, 0
	if first != second {
		t.Fatalf("back-to-back Results differ:\n%+v\n%+v", first, second)
	}
	bufBytes := uint64((g.N() + g.Edges()) * cfg.MsgSize)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("second Measure allocated %d bytes; its rank buffers are %d", alloc, bufBytes)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return
			}
		}
	}
	if alloc >= bufBytes/4 {
		t.Fatalf("second Measure allocated %d bytes, want < ¼ of its %d rank-buffer bytes", alloc, bufBytes)
	}
}

func TestMeasureValidation(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.4)
	if _, err := Measure(Config{Cluster: c, MsgSize: 0}, collective.NewNaive(g)); err == nil {
		t.Error("accepted zero message size")
	}
	if _, err := Measure(Config{Cluster: c, MsgSize: 8, Trials: -1}, collective.NewNaive(g)); err == nil {
		t.Error("accepted a negative trial count")
	}
	small, err := vgraph.ErdosRenyi(4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(Config{Cluster: c, MsgSize: 8}, collective.NewNaive(small)); err == nil {
		t.Error("accepted graph/cluster size mismatch")
	}
}

func TestMeasureBestCNPicksBest(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.6)
	cfg := Config{Cluster: c, MsgSize: 128, Trials: 2, Phantom: true}
	best, k, err := MeasureBestCN(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, kk := range CNGroupSizes {
		if kk == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("winning K=%d not in sweep set", k)
	}
	// The winner must be at least as fast as K=2 re-measured.
	op, err := collective.NewCommonNeighborAffinity(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Measure(cfg, op)
	if err != nil {
		t.Fatal(err)
	}
	if best.Mean > k2.Mean*1.5 {
		t.Fatalf("best K=%d (%.3g) much slower than K=2 (%.3g)", k, best.Mean, k2.Mean)
	}
}

func TestCompareProducesSpeedups(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.5)
	row, err := Compare(Config{Cluster: c, MsgSize: 512, Trials: 2, Phantom: true}, g, "test")
	if err != nil {
		t.Fatal(err)
	}
	if row.SpeedupDH() <= 0 || row.SpeedupCN() <= 0 {
		t.Fatalf("speedups not positive: %+v", row)
	}
	if row.DH.MsgsPerTrial >= row.Naive.MsgsPerTrial {
		t.Fatalf("DH sent %d msgs, naive %d — no reduction on dense graph",
			row.DH.MsgsPerTrial, row.Naive.MsgsPerTrial)
	}
}

func TestRandomSparseSweepShape(t *testing.T) {
	c := testCluster()
	rows, err := RandomSparseSweep(c, []float64{0.2, 0.6}, []int{64, 4096}, 1, 3, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if rows[0].Label != "δ=0.20" || rows[3].Label != "δ=0.60" {
		t.Fatalf("labels wrong: %q %q", rows[0].Label, rows[3].Label)
	}
}

func TestMooreSweepShape(t *testing.T) {
	c := testCluster()
	rows, err := MooreSweep(c, []MooreShape{{R: 1, D: 2}}, []int{1024}, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	// A Moore r=1 d=2 graph has 8 neighbors per rank → naive sends 8n.
	if rows[0].Naive.MsgsPerTrial != int64(8*c.Ranks()) {
		t.Fatalf("naive msgs %d, want %d", rows[0].Naive.MsgsPerTrial, 8*c.Ranks())
	}
}

// TestMooreShapeNeighbors: each Fig. 6 shape, on the 512-rank grid of
// results/fig6_moore_512.txt, gives every rank the paper's (2r+1)^d − 1
// neighbors.
func TestMooreShapeNeighbors(t *testing.T) {
	want := map[MooreShape]int{
		{R: 1, D: 2}: 8, {R: 2, D: 2}: 24, {R: 3, D: 2}: 48,
		{R: 1, D: 3}: 26, {R: 2, D: 3}: 124,
	}
	for _, s := range PaperMooreShapes {
		dims, err := vgraph.MooreDims(512, s.D)
		if err != nil {
			t.Fatal(err)
		}
		g, err := vgraph.Moore(dims, s.R)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.N(); r++ {
			if got := g.OutDegree(r); got != want[s] {
				t.Fatalf("%s: rank %d has %d neighbors, want %d", s, r, got, want[s])
			}
		}
	}
}

func TestSpMMSweepSmall(t *testing.T) {
	const seed = 9
	mats := []sparse.NamedMatrix{
		{Name: "tiny-banded", PaperRows: 60, PaperNNZ: 300, Structure: "banded", M: sparse.Banded(60, 300, seed)},
		{Name: "tiny-uniform", PaperRows: 50, PaperNNZ: 600, Structure: "uniform", M: sparse.Uniform(50, 600, seed)},
	}
	rows, err := SpMMSweepMatrices(testCluster(), mats, 4, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Naive.Mean <= 0 || r.DH.Mean <= 0 || r.CN.Mean <= 0 {
			t.Fatalf("%s: missing measurements %+v", r.Matrix, r)
		}
		if r.CNK == 0 {
			t.Fatalf("%s: no CN group size chosen", r.Matrix)
		}
	}
}

func TestOverheadSweepShape(t *testing.T) {
	c := testCluster()
	rows, err := OverheadSweep(c, []float64{0.3}, 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.DHTime <= 0 || r.CNTime <= 0 || r.DHMsgs <= 0 || r.CNMsgs <= 0 {
		t.Fatalf("missing build measurements: %+v", r)
	}
	if r.SuccessRate <= 0 || r.SuccessRate > 1 {
		t.Fatalf("success rate %v out of range", r.SuccessRate)
	}
}

// TestOverheadDHCostsMore checks the Fig. 8 direction — Distance
// Halving pattern creation costs more than Common Neighbor's — at a
// scale where the per-step negotiation dominates the shared setup
// (tiny communicators can invert it).
func TestOverheadDHCostsMore(t *testing.T) {
	c := topology.Cluster{Nodes: 8, SocketsPerNode: 2, RanksPerSocket: 6, NodesPerGroup: 4}
	rows, err := OverheadSweep(c, []float64{0.3}, 5, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.Ratio() <= 1 {
		t.Fatalf("DH/CN build ratio %.2f ≤ 1 at %d ranks, paper reports DH costs 1.2–1.5x more", r.Ratio(), c.Ranks())
	}
}

func TestMsgSizesLadder(t *testing.T) {
	sizes := MsgSizes(8, 2048)
	want := []int{8, 32, 128, 512, 2048}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v", sizes)
		}
	}
}

func TestPrinters(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.5)
	row, err := Compare(Config{Cluster: c, MsgSize: 64, Trials: 1, Phantom: true}, g, "p")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintComparisons(&buf, "t", []Comparison{row})
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("table missing header")
	}
	buf.Reset()
	CSVComparisons(&buf, []Comparison{row})
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("CSV has %d lines", lines)
	}
	rows, err := OverheadSweep(c, []float64{0.2}, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintOverhead(&buf, rows)
	CSVOverhead(&buf, rows)
	if !strings.Contains(buf.String(), "density") {
		t.Fatal("overhead output missing")
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[int]string{8: "8B", 2048: "2KB", 4 << 20: "4MB", 100: "100B"}
	for n, want := range cases {
		if got := FmtBytes(n); got != want {
			t.Errorf("FmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
	if FmtTime(2.5) != "2.5s" || FmtTime(0.0025) != "2.5ms" || FmtTime(2.5e-6) != "2.5µs" {
		t.Errorf("FmtTime wrong: %s %s %s", FmtTime(2.5), FmtTime(0.0025), FmtTime(2.5e-6))
	}
}

func TestStatsSingleTrial(t *testing.T) {
	r := stats([]float64{3})
	if r.Mean != 3 || r.Std != 0 || r.Min != 3 || r.Max != 3 {
		t.Fatalf("stats([3]) = %+v", r)
	}
}

// TestLoadBalanceHubGraph checks the Section IV claim: on a skewed
// hub-broadcast workload, Distance Halving spreads the hub's sends
// across agents, cutting the per-rank message imbalance.
func TestLoadBalanceHubGraph(t *testing.T) {
	c := topology.Cluster{Nodes: 8, SocketsPerNode: 2, RanksPerSocket: 6, NodesPerGroup: 4}
	rows, err := LoadBalanceSweep(c, []int{1, 4}, 1024, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: msg imbalance naive %.1f → DH %.1f; time %s → %s",
			r.Label, r.NaiveMsgImb, r.DHMsgImb, FmtTime(r.NaiveTime), FmtTime(r.DHTime))
		if r.DHMsgImb >= r.NaiveMsgImb {
			t.Errorf("%s: DH msg imbalance %.1f not below naive %.1f",
				r.Label, r.DHMsgImb, r.NaiveMsgImb)
		}
	}
}

func TestHubGraphShape(t *testing.T) {
	g, err := HubGraph(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 19 || g.OutDegree(1) != 19 {
		t.Fatalf("hub degrees %d %d", g.OutDegree(0), g.OutDegree(1))
	}
	if g.OutDegree(5) != 3 { // two hubs + one ring neighbor
		t.Fatalf("spoke degree %d, want 3", g.OutDegree(5))
	}
	if _, err := HubGraph(5, 5); err == nil {
		t.Fatal("accepted hubs == n")
	}
}

// TestSeedVariance checks the variance machinery and the qualitative
// claim the paper attaches to it: the Distance Halving algorithm's
// run-to-run variation is not wildly above the naive algorithm's (the
// paper found DH "considerably more stable").
func TestSeedVariance(t *testing.T) {
	c := topology.Cluster{Nodes: 8, SocketsPerNode: 2, RanksPerSocket: 6, NodesPerGroup: 4}
	row, err := SeedVariance(c, 0.4, 2048, 5, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if row.Seeds != 5 || row.NaiveMean <= 0 || row.DHMean <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
	if row.NaiveCV < 0 || row.DHCV < 0 || row.NaiveCV > 1 || row.DHCV > 1 {
		t.Fatalf("implausible CVs: %+v", row)
	}
	t.Logf("variance over 5 seeds: naive %.3gms ±%.1f%%, DH %.3gms ±%.1f%%",
		row.NaiveMean*1e3, 100*row.NaiveCV, row.DHMean*1e3, 100*row.DHCV)
	var buf bytes.Buffer
	PrintVariance(&buf, []VarianceRow{row})
	if !strings.Contains(buf.String(), "seeds") {
		t.Fatal("print output missing")
	}
}

func TestMeanCV(t *testing.T) {
	m, cv := meanCV([]float64{2, 2, 2})
	if m != 2 || cv != 0 {
		t.Fatalf("constant series: mean %v cv %v", m, cv)
	}
	m, cv = meanCV([]float64{5})
	if m != 5 || cv != 0 {
		t.Fatalf("single sample: mean %v cv %v", m, cv)
	}
}

// TestMeasureUnderChaos: a measurement under fault injection completes
// deterministically and costs more modelled time than a clean run —
// the robustness-study use of the harness.
func TestMeasureUnderChaos(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.4)
	op := collective.NewNaive(g)
	clean, err := Measure(Config{Cluster: c, MsgSize: 256, Trials: 2, Phantom: true}, op)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := func() Result {
		res, err := Measure(Config{
			Cluster: c, MsgSize: 256, Trials: 2, Phantom: true,
			Chaos: &mpirt.Chaos{Seed: 3, FailProb: 0.4, MaxRetries: 4, Backoff: 1e-4, SpikeProb: 0.4, Spike: 1e-3},
		}, op)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := chaotic(), chaotic()
	if r1.Mean != r2.Mean {
		t.Fatalf("chaos measurement not deterministic: %v vs %v", r1.Mean, r2.Mean)
	}
	if r1.Mean <= clean.Mean {
		t.Fatalf("faults did not cost time: clean %v, chaos %v", clean.Mean, r1.Mean)
	}
	if r1.MsgsPerTrial != clean.MsgsPerTrial {
		t.Fatalf("faults changed message count: %d vs %d", r1.MsgsPerTrial, clean.MsgsPerTrial)
	}
}
