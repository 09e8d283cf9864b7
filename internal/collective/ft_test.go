package collective

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

const ftMsg = 48

func ftCluster() topology.Cluster {
	return topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
}

// ftOps builds one instance of each self-healing algorithm over g.
func ftOps(t *testing.T, g *vgraph.Graph, c topology.Cluster) []Op {
	t.Helper()
	dh, err := NewDistanceHalving(g, c.RanksPerSocket)
	if err != nil {
		t.Fatalf("distance-halving: %v", err)
	}
	cn, err := NewCommonNeighbor(g, 2)
	if err != nil {
		t.Fatalf("common-neighbor: %v", err)
	}
	lb, err := NewLeaderBasedK(g, c, 2)
	if err != nil {
		t.Fatalf("leader-based: %v", err)
	}
	return []Op{NewNaive(g), dh, cn, lb}
}

// runFTCase executes RunFTV with uniform counts under injected kills and
// returns the per-rank results (nil for dead ranks) plus the runtime
// report.
func runFTCase(t *testing.T, op Op, c topology.Cluster, kills []mpirt.Kill, chaos *mpirt.Chaos) ([]*FTResult, *mpirt.Report) {
	t.Helper()
	g := op.Graph()
	n := g.N()
	results := make([]*FTResult, n)
	var mu sync.Mutex
	rep, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: n, Kills: kills, Chaos: chaos}, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, ftMsg)
		fillPattern(sbuf, r)
		rbuf := make([]byte, g.InDegree(r)*ftMsg)
		res, ferr := RunFTV(p, op, sbuf, uniformFor(op, ftMsg), rbuf)
		if ferr != nil {
			panic(fmt.Sprintf("rank %d: RunFTV: %v", r, ferr))
		}
		mu.Lock()
		results[r] = res
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("%s with kills %v: %v", op.Name(), kills, err)
	}
	return results, rep
}

// checkFTResults verifies the run's outcome, whatever it legitimately
// was. A kill may never fire (the victim ran out of operations first)
// or fire only after the victim met all its obligations — then the
// collective completes without recovery and survivor buffers must
// match the full graph. When recovery did happen, every rank that
// returned must report the identical outcome and hold bitwise-correct
// buffers for the survivor-projected graph. It returns true when the
// recovery path was exercised.
func checkFTResults(t *testing.T, op Op, results []*FTResult, kills []mpirt.Kill) bool {
	t.Helper()
	g := op.Graph()
	killed := map[int]bool{}
	for _, k := range kills {
		killed[k.Rank] = true
	}
	var ref *FTResult
	for r, res := range results {
		if res == nil {
			if !killed[r] {
				t.Fatalf("%s: non-killed rank %d has no result", op.Name(), r)
			}
			continue
		}
		if !slices.IsSorted(res.AliveOld) || !slices.IsSorted(res.DeadOld) {
			t.Fatalf("%s: rank %d reports survivors %v and dead %v: both must be ascending", op.Name(), r, res.AliveOld, res.DeadOld)
		}
		if ref == nil {
			ref = res
			for _, d := range res.DeadOld {
				if !killed[d] {
					t.Fatalf("%s: reports non-killed rank %d dead", op.Name(), d)
				}
				if res.Comm.Contains(d) {
					t.Fatalf("%s: dead rank %d still a member of %v", op.Name(), d, res.Comm)
				}
			}
		} else if res.Recovered != ref.Recovered || res.Rounds != ref.Rounds ||
			fmt.Sprint(res.AliveOld) != fmt.Sprint(ref.AliveOld) || res.Repair != ref.Repair {
			t.Fatalf("%s: ranks disagree on outcome: rank %d got (%v, %d, %v, %q), want (%v, %d, %v, %q)",
				op.Name(), r, res.Recovered, res.Rounds, res.AliveOld, res.Repair,
				ref.Recovered, ref.Rounds, ref.AliveOld, ref.Repair)
		}
		if !res.Recovered {
			// Completed on the full communicator: every returning
			// rank's buffer covers the full graph (a victim's payload
			// was delivered before it died, or it never died).
			if want := expectedRbuf(g, r, ftMsg); !bytes.Equal(res.RBuf, want) {
				t.Fatalf("%s: rank %d fault-free-path buffer mismatch", op.Name(), r)
			}
			continue
		}
		// Survivor ground truth: the projected in-neighborhood, with
		// payloads identified by original rank. A rank that died after
		// the final shrink snapshot can still be in AliveOld with no
		// result; every rank that did return must be a member.
		nr := res.Comm.NewRank(r)
		if nr < 0 {
			t.Fatalf("%s: returning rank %d missing from %v", op.Name(), r, res.Comm)
		}
		in := res.Graph.In(nr)
		want := make([]byte, len(in)*ftMsg)
		for i, u := range in {
			fillPattern(want[i*ftMsg:(i+1)*ftMsg], res.AliveOld[u])
		}
		if !bytes.Equal(res.RBuf, want) {
			t.Fatalf("%s: survivor %d recovered buffer mismatch (dead %v)", op.Name(), r, res.DeadOld)
		}
	}
	if len(kills) == 0 && ref != nil && ref.Recovered {
		t.Fatalf("%s: recovered with no injected failures", op.Name())
	}
	return ref != nil && ref.Recovered
}

func TestFTFaultFree(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	for _, op := range ftOps(t, g, c) {
		results, rep := runFTCase(t, op, c, nil, nil)
		checkFTResults(t, op, results, nil)
		if len(rep.DeadRanks) != 0 || rep.Detections != 0 {
			t.Fatalf("%s: fault-free run reports failures: %+v", op.Name(), rep)
		}
	}
}

func TestFTRecoverEachAlgorithm(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	kills := []mpirt.Kill{{Rank: 3}}
	for _, op := range ftOps(t, g, c) {
		results, rep := runFTCase(t, op, c, kills, nil)
		if !checkFTResults(t, op, results, kills) {
			t.Fatalf("%s: immediate kill did not trigger recovery", op.Name())
		}
		if fmt.Sprint(rep.DeadRanks) != "[3]" {
			t.Fatalf("%s: DeadRanks = %v, want [3]", op.Name(), rep.DeadRanks)
		}
		if rep.Detections == 0 || rep.DetectTime <= 0 {
			t.Fatalf("%s: recovery cost invisible: detections=%d detect-time=%v",
				op.Name(), rep.Detections, rep.DetectTime)
		}
	}
}

// TestFTAgentKill kills an elected distance-halving agent and checks
// that re-running the matching over the survivor graph recovers with
// the distance-halving repair, not the naive fallback.
func TestFTAgentKill(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	dh, err := NewDistanceHalving(g, c.RanksPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	agent := pattern.NoRank
	for _, pl := range dh.pat.Plans {
		for _, st := range pl.Steps {
			if st.Agent != pattern.NoRank {
				agent = int(st.Agent)
				break
			}
		}
		if agent != pattern.NoRank {
			break
		}
	}
	if agent == pattern.NoRank {
		t.Fatal("pattern elected no agents; pick a denser graph")
	}
	kills := []mpirt.Kill{{Rank: agent}}
	results, _ := runFTCase(t, dh, c, kills, nil)
	if !checkFTResults(t, dh, results, kills) {
		t.Fatal("agent kill did not trigger recovery")
	}
	for r, res := range results {
		if res != nil {
			if res.Repair != "distance-halving" {
				t.Fatalf("agent kill degraded to %q", res.Repair)
			}
			_ = r
			break
		}
	}
}

// TestFTLeaderKill kills rank 0 — a node leader under the base
// placement — and checks leadership is re-elected among survivors.
func TestFTLeaderKill(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	lb, err := NewLeaderBasedK(g, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	kills := []mpirt.Kill{{Rank: 0}}
	results, _ := runFTCase(t, lb, c, kills, nil)
	if !checkFTResults(t, lb, results, kills) {
		t.Fatal("leader kill did not trigger recovery")
	}
	for _, res := range results {
		if res != nil {
			if res.Repair != lb.Name() {
				t.Fatalf("leader kill degraded to %q, want %q", res.Repair, lb.Name())
			}
			break
		}
	}
}

// TestFTMultiKill runs two kill sets. In the first, rank 1 dies before
// the collective and rank 5 inside the repair round: at its first
// operation past 104 µs of virtual time. Rank 1's death costs its
// observers the 100 µs detection timeout, and the agreement that starts
// the repair lifts every survivor past it, so rank 5 dies early in the
// repaired re-run on all four algorithms (on this graph the window is
// 103.5–105 µs) and each needs a second round. In the second set, ranks
// 5 and 1 die before the collective and one round repairs both.
// checkFTResults pins the order of the dead.
func TestFTMultiKill(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	for _, set := range []struct {
		kills  []mpirt.Kill
		rounds int
	}{
		{[]mpirt.Kill{{Rank: 1}, {Rank: 5, VT: 104e-6}}, 2},
		{[]mpirt.Kill{{Rank: 5}, {Rank: 1}}, 1},
	} {
		for _, op := range ftOps(t, g, c) {
			results, _ := runFTCase(t, op, c, set.kills, nil)
			if !checkFTResults(t, op, results, set.kills) {
				t.Fatalf("%s: multi-kill %v did not trigger recovery", op.Name(), set.kills)
			}
			for r, res := range results {
				if res != nil && (res.Rounds != set.rounds || !slices.Equal(res.DeadOld, []int{1, 5})) {
					t.Fatalf("%s: multi-kill %v: rank %d reports %d rounds and dead %v, want %d and [1 5]",
						op.Name(), set.kills, r, res.Rounds, res.DeadOld, set.rounds)
				}
			}
		}
	}
}

// TestFTChaos runs a recovery under the deterministic chaos scheduler
// in both threaded-equivalent record mode and verifies survivors.
func TestFTChaos(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	kills := []mpirt.Kill{{Rank: 3, AfterOps: 2}}
	for _, op := range ftOps(t, g, c) {
		recovered := false
		for seed := int64(1); seed <= 3; seed++ {
			results, _ := runFTCase(t, op, c, kills, &mpirt.Chaos{Seed: seed})
			recovered = checkFTResults(t, op, results, kills) || recovered
		}
		if !recovered {
			t.Fatalf("%s: no chaos seed exercised recovery", op.Name())
		}
	}
}

// TestFTVCountsMismatch pins the usage check.
func TestFTVCountsMismatch(t *testing.T) {
	c := ftCluster()
	g := erGraph(t, c.Ranks(), 0.4, 11)
	op := NewNaive(g)
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
		defer func() {
			if recover() == nil {
				panic("RunFTV accepted a mis-sized counts slice")
			}
		}()
		_, _ = RunFTV(p, op, nil, make([]int, 3), nil)
	})
	if err != nil {
		t.Fatalf("counts validation: %v", err)
	}
}
