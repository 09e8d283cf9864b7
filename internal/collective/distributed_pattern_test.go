package collective

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
)

// TestDHFromDistributedPattern runs the collective over a pattern
// produced by the distributed negotiation protocol — the full paper
// pipeline: MPI_Dist_graph_create_adjacent-time negotiation, then
// MPI_Neighbor_allgather-time data movement.
func TestDHFromDistributedPattern(t *testing.T) {
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	for _, delta := range []float64{0.2, 0.6} {
		g := erGraph(t, c.Ranks(), delta, 23)
		pat, _, err := pattern.BuildDistributed(mpirt.Config{Cluster: c, Phantom: true}, g)
		if err != nil {
			t.Fatal(err)
		}
		op := NewDistanceHalvingFromPattern(pat)
		t.Run(fmt.Sprintf("d=%v", delta), func(t *testing.T) {
			runAndCheck(t, c, g, op, 24)
		})
	}
}

// TestBuildRankInsideCollectiveRun exercises the end-to-end flow where
// pattern construction and the collective share one runtime execution,
// as a real MPI program would.
func TestBuildRankInsideCollectiveRun(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 41)
	plans := make([]pattern.RankPlan, g.N())
	_, err := mpirt.Run(mpirt.Config{Cluster: c}, func(p *mpirt.Proc) {
		plan, _, _ := pattern.BuildRank(p, g, c.L())
		plans[p.Rank()] = *plan
		p.Barrier() // all plans in place before any rank proceeds

		pat := &pattern.Pattern{Graph: g, L: c.L(), Plans: plans}
		op := NewDistanceHalvingFromPattern(pat)
		const m = 16
		sbuf := make([]byte, m)
		fillPattern(sbuf, p.Rank())
		rbuf := make([]byte, g.InDegree(p.Rank())*m)
		op.Run(p, sbuf, m, rbuf)
		want := expectedRbuf(g, p.Rank(), m)
		for i := range want {
			if rbuf[i] != want[i] {
				panic(fmt.Sprintf("rank %d rbuf mismatch at %d", p.Rank(), i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallFromDistributedPattern: the alltoall variant over a
// negotiated pattern.
func TestAlltoallFromDistributedPattern(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 29)
	pat, _, err := pattern.BuildDistributed(mpirt.Config{Cluster: c, Phantom: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	runAndCheckA(t, c, g, &Alltoall{bound{name: "distance-halving-alltoall", plan: emitDHAlltoall(pat), pat: pat}}, 12)
}

// TestDHPhaseBreakdown counts a Distance Halving plan's sends per phase
// and distance class and checks the paper's phase story: the remainder
// phase carries the bulk of the messages but stays predominantly on
// cheap local links, while the halving phase owns the distant traffic.
// The static count covers every message the runtime sends.
func TestDHPhaseBreakdown(t *testing.T) {
	// Socket-aligned configuration: n/L is a power of two, so final
	// halving blocks coincide with sockets exactly.
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 8, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 3)
	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
		dh.Run(p, nil, 256, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	var halving, remainder [5]int // sends by distance class
	pl := dh.Plan()
	for r := range g.N() {
		for _, op := range pl.Ops(r) {
			if op.Kind != OpSend {
				continue
			}
			switch name, _, _ := tags.Phase(int(op.Tag)); name {
			case "dh-step":
				halving[c.Dist(r, int(op.Peer))]++
			case "dh-final":
				remainder[c.Dist(r, int(op.Peer))]++
			default:
				t.Fatalf("rank %d sends in phase %s", r, name)
			}
		}
	}
	sum := func(a []int) (n int) {
		for _, v := range a {
			n += v
		}
		return n
	}
	hMsgs, rMsgs := sum(halving[:]), sum(remainder[:])
	if int64(hMsgs+rMsgs) != rep.Msgs() {
		t.Fatalf("phases cover %d msgs, runtime counted %d", hMsgs+rMsgs, rep.Msgs())
	}
	if rMsgs <= hMsgs {
		t.Fatalf("remainder (%d msgs) not message-heavier than halving (%d)", rMsgs, hMsgs)
	}
	local := remainder[topology.DistSocket]
	if 2*local < rMsgs {
		t.Fatalf("remainder phase only %d/%d messages socket-local", local, rMsgs)
	}
	offHalving := sum(halving[topology.DistNode:])
	if 2*offHalving < hMsgs {
		t.Fatalf("halving phase only %d/%d messages off-socket", offHalving, hMsgs)
	}
	t.Logf("halving: %d msgs (%d off-socket); remainder: %d msgs (%d socket-local)",
		hMsgs, offHalving, rMsgs, local)
}

// TestCriticalPathOnOff: recording the critical path changes nothing it
// records — every algorithm's time and traffic are equal with it on and
// off — and the recorded path tiles the time the closing CollectiveTime
// returns, on each engine.
func TestCriticalPathOnOff(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.3, 7)
	for _, algo := range Algos() {
		op, err := New(algo, g, c, PlanParams{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range mpirt.Engines() {
			var reps [2]*mpirt.Report
			var ct float64
			for i, on := range []bool{false, true} {
				reps[i], err = mpirt.Run(mpirt.Config{Cluster: c, Phantom: true, Engine: eng, CriticalPath: on}, func(p *mpirt.Proc) {
					p.SyncResetTime()
					op.Run(p, nil, 512, nil)
					if t := p.CollectiveTime(); p.Rank() == 0 {
						ct = t
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			off, on := reps[0], reps[1]
			// The threaded engine's times follow host scheduling; its
			// traffic does not.
			if (eng == mpirt.EngineEvent && on.Time != off.Time) || on.MsgsByDist != off.MsgsByDist || !slices.Equal(on.ResMsgs, off.ResMsgs) {
				t.Errorf("%s/%s: recording moved the run: on %g %v, off %g %v", algo, eng, on.Time, on.MsgsByDist, off.Time, off.MsgsByDist)
			}
			if off.Path != nil || len(on.Path) == 0 {
				t.Errorf("%s/%s: path %d spans off, %d on", algo, eng, len(off.Path), len(on.Path))
			}
			var sum float64
			for _, s := range on.Path {
				if s.Src < 0 {
					sum += s.To - s.From
				} else {
					sum += s.Alpha + s.Wire + s.Queue
				}
			}
			if math.Abs(sum-on.Time) > 1e-12 || on.Time != ct {
				t.Errorf("%s/%s: path sums to %g, Time %g, CollectiveTime %g", algo, eng, sum, on.Time, ct)
			}
		}
	}
}
