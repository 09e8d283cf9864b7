package collective

import (
	"bytes"
	"fmt"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// fillPattern writes a rank-unique byte pattern so misrouted or
// misplaced payloads are detected.
func fillPattern(buf []byte, rank int) {
	for i := range buf {
		buf[i] = byte(rank*131 + i*7 + 3)
	}
}

// expectedRbuf computes the ground-truth allgather result for rank r.
func expectedRbuf(g *vgraph.Graph, r, m int) []byte {
	in := g.In(r)
	out := make([]byte, len(in)*m)
	for i, u := range in {
		fillPattern(out[i*m:(i+1)*m], u)
	}
	return out
}

// runAndCheck executes op on the cluster with real payloads and
// verifies every rank's receive buffer against the ground truth.
func runAndCheck(t *testing.T, c topology.Cluster, g *vgraph.Graph, op Op, m int) *mpirt.Report {
	t.Helper()
	rep, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, m)
		fillPattern(sbuf, r)
		rbuf := make([]byte, g.InDegree(r)*m)
		op.Run(p, sbuf, m, rbuf)
		want := expectedRbuf(g, r, m)
		if !bytes.Equal(rbuf, want) {
			for i, u := range g.In(r) {
				if !bytes.Equal(rbuf[i*m:(i+1)*m], want[i*m:(i+1)*m]) {
					panic(fmt.Sprintf("%s: rank %d got wrong payload for in-neighbor %d", op.Name(), r, u))
				}
			}
			panic(fmt.Sprintf("%s: rank %d receive buffer mismatch", op.Name(), r))
		}
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", op.Name(), c, err)
	}
	return rep
}

func erGraph(t *testing.T, n int, delta float64, seed int64) *vgraph.Graph {
	t.Helper()
	g, err := vgraph.ErdosRenyi(n, delta, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allOps(t *testing.T, g *vgraph.Graph, c topology.Cluster) []Op {
	t.Helper()
	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	cn2, err := NewCommonNeighbor(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	cn4, err := NewCommonNeighbor(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cnAff, err := NewCommonNeighborAffinity(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLeaderBased(g, c)
	if err != nil {
		t.Fatal(err)
	}
	return []Op{NewNaive(g), dh, cn2, cn4, cnAff, lb}
}

func TestAlgorithmsCorrectSmall(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	for _, delta := range []float64{0.05, 0.2, 0.5, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			g := erGraph(t, c.Ranks(), delta, seed)
			for _, op := range allOps(t, g, c) {
				t.Run(fmt.Sprintf("%s/d=%v/seed=%d", op.Name(), delta, seed), func(t *testing.T) {
					runAndCheck(t, c, g, op, 16)
				})
			}
		}
	}
}

func TestAlgorithmsCorrectOddShapes(t *testing.T) {
	// Non-power-of-two rank counts, halving blocks misaligned with
	// sockets, single-node and single-socket extremes.
	shapes := []topology.Cluster{
		{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2},
		{Nodes: 5, SocketsPerNode: 2, RanksPerSocket: 5, NodesPerGroup: 2},
		{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 7},
		{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 9},
		{Nodes: 7, SocketsPerNode: 1, RanksPerSocket: 1, NodesPerGroup: 3},
	}
	for _, c := range shapes {
		g := erGraph(t, c.Ranks(), 0.3, 42)
		for _, op := range allOps(t, g, c) {
			t.Run(fmt.Sprintf("%s/%dranks", op.Name(), c.Ranks()), func(t *testing.T) {
				runAndCheck(t, c, g, op, 8)
			})
		}
	}
}

func TestMooreGraphCorrect(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 8, NodesPerGroup: 2}
	g, err := vgraph.Moore([]int{8, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range allOps(t, g, c) {
		runAndCheck(t, c, g, op, 32)
	}
}

func TestEmptyAndDenseGraphs(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	n := c.Ranks()
	empty := erGraph(t, n, 0, 1)
	full := erGraph(t, n, 1, 1)
	for _, g := range []*vgraph.Graph{empty, full} {
		for _, op := range allOps(t, g, c) {
			runAndCheck(t, c, g, op, 4)
		}
	}
}

// TestPhantomMatchesRealCosts: phantom (size-only) runs must charge
// exactly the messages and bytes of real-payload runs, or every
// large-scale measurement in the harness would be suspect. Virtual
// time is only band-compared: it carries run-to-run jitter because
// shared-resource arbitration (NIC, ports) follows goroutine
// scheduling order.
func TestPhantomMatchesRealCosts(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 17)
	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(phantom bool) (*mpirt.Report, float64) {
		var res float64
		rep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: phantom}, func(p *mpirt.Proc) {
			const m = 512
			var sbuf, rbuf []byte
			if !phantom {
				sbuf = make([]byte, m)
				rbuf = make([]byte, g.InDegree(p.Rank())*m)
			}
			p.SyncResetTime()
			dh.Run(p, sbuf, m, rbuf)
			v := p.CollectiveTime()
			if p.Rank() == 0 {
				res = v
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, res
	}
	realRep, realTime := runOnce(false)
	phRep, phTime := runOnce(true)
	if realRep.Msgs() != phRep.Msgs() || realRep.Bytes() != phRep.Bytes() {
		t.Fatalf("phantom charged %d msgs / %d bytes, real %d / %d",
			phRep.Msgs(), phRep.Bytes(), realRep.Msgs(), realRep.Bytes())
	}
	if realRep.MsgsByDist != phRep.MsgsByDist {
		t.Fatalf("distance histograms differ: %v vs %v", phRep.MsgsByDist, realRep.MsgsByDist)
	}
	if phTime > 3*realTime || realTime > 3*phTime {
		t.Fatalf("times diverge beyond scheduling jitter: phantom %.3g, real %.3g", phTime, realTime)
	}
}

// TestRoundScansLinear is the count-based guard on round completion:
// three trials of a naive Moore allgather — nine barrier generations —
// may examine at most two passes' worth of rank slots per generation on
// either engine. A completion check that scans on every arrival
// examines about n/2 per arrival, n²/2 per generation.
func TestRoundScansLinear(t *testing.T) {
	const n, trials = 4096, 3
	g, err := vgraph.Moore([]int{64, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	naive := NewNaive(g)
	for _, eng := range mpirt.Engines() {
		rep, err := mpirt.Run(mpirt.Config{Cluster: topology.Niagara(n/64, 32), Phantom: true, Engine: eng}, func(p *mpirt.Proc) {
			for tr := 0; tr < trials; tr++ {
				p.SyncResetTime()
				naive.Run(p, nil, 1024, nil)
				p.CollectiveTime()
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		const rounds = 3 * trials // SyncResetTime is two barriers, CollectiveTime one
		if rep.RoundScans < n*rounds || rep.RoundScans > 2*n*rounds {
			t.Errorf("%s: %d rank slots scanned over %d rounds of %d ranks, want within [n, 2n] per round",
				eng, rep.RoundScans, rounds, n)
		}
	}
}
