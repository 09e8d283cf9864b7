package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// raggedCounts produces per-rank sizes spanning zero to a few hundred
// bytes, including zero-length contributions (legal in MPI).
func raggedCounts(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, n)
	for i := range counts {
		switch rng.Intn(4) {
		case 0:
			counts[i] = 0
		case 1:
			counts[i] = 1 + rng.Intn(8)
		default:
			counts[i] = 16 * (1 + rng.Intn(20))
		}
	}
	return counts
}

// expectedRbufV computes the ground-truth allgatherv result for rank r.
func expectedRbufV(g *vgraph.Graph, r int, counts []int) []byte {
	var out []byte
	for _, u := range g.In(r) {
		seg := make([]byte, counts[u])
		fillPattern(seg, u)
		out = append(out, seg...)
	}
	return out
}

func runAndCheckV(t *testing.T, c topology.Cluster, g *vgraph.Graph, op Op, counts []int) {
	t.Helper()
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, counts[r])
		fillPattern(sbuf, r)
		want := expectedRbufV(g, r, counts)
		rbuf := make([]byte, len(want))
		op.RunV(p, sbuf, counts, rbuf)
		if !bytes.Equal(rbuf, want) {
			panic(fmt.Sprintf("%s: rank %d allgatherv buffer mismatch", op.Name(), r))
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", op.Name(), err)
	}
}

func vOps(t *testing.T, g *vgraph.Graph, l int) []Op {
	t.Helper()
	dh, err := NewDistanceHalving(g, l)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewCommonNeighbor(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cnAff, err := NewCommonNeighborAffinity(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Op{NewNaive(g), dh, cn, cnAff}
}

func TestAllgathervCorrect(t *testing.T) {
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	for _, delta := range []float64{0.1, 0.4, 0.8} {
		g := erGraph(t, c.Ranks(), delta, 31)
		counts := raggedCounts(c.Ranks(), 77)
		for _, op := range vOps(t, g, c.L()) {
			t.Run(fmt.Sprintf("%s/d=%v", op.Name(), delta), func(t *testing.T) {
				runAndCheckV(t, c, g, op, counts)
			})
		}
	}
}

func TestAllgathervAllZeroCounts(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 13)
	counts := make([]int, c.Ranks())
	for _, op := range vOps(t, g, c.L()) {
		runAndCheckV(t, c, g, op, counts)
	}
}

// TestAllgathervProperty drives random shapes, densities and ragged
// size vectors through the Distance Halving allgatherv.
func TestAllgathervProperty(t *testing.T) {
	f := func(nSeed, dSeed uint8, cSeed int64) bool {
		nodes := 1 + int(nSeed)%4
		c := topology.Cluster{Nodes: nodes, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}
		delta := float64(dSeed%100) / 100
		g, err := vgraph.ErdosRenyi(c.Ranks(), delta, cSeed)
		if err != nil {
			return false
		}
		dh, err := NewDistanceHalving(g, c.L())
		if err != nil {
			return false
		}
		counts := raggedCounts(c.Ranks(), cSeed^0x9e37)
		ok := true
		_, err = mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
			r := p.Rank()
			sbuf := make([]byte, counts[r])
			fillPattern(sbuf, r)
			want := expectedRbufV(g, r, counts)
			rbuf := make([]byte, len(want))
			dh.RunV(p, sbuf, counts, rbuf)
			if !bytes.Equal(rbuf, want) {
				panic("mismatch")
			}
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllgathervValidation(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 2}
	g := erGraph(t, c.Ranks(), 0.5, 1)
	naive := NewNaive(g)
	cases := map[string]func(p *mpirt.Proc){
		"wrong counts length": func(p *mpirt.Proc) {
			naive.RunV(p, nil, []int{1}, nil)
		},
		"negative count": func(p *mpirt.Proc) {
			naive.RunV(p, make([]byte, 1), []int{1, -1, 1, 1}, nil)
		},
		"sbuf mismatch": func(p *mpirt.Proc) {
			naive.RunV(p, make([]byte, 3), []int{8, 8, 8, 8}, make([]byte, 8*g.InDegree(p.Rank())))
		},
	}
	for name, f := range cases {
		_, err := mpirt.Run(mpirt.Config{Cluster: c}, func(p *mpirt.Proc) {
			if p.Rank() == 0 {
				f(p)
			}
		})
		if err == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
}

// TestRunContractAfterSplit pins what the checkCounts/checkArgsV split
// must keep: the uniform Run, which no longer scans its own counts,
// still rejects a bad m and (in real mode) mis-sized buffers with the
// messages it always had; phantom mode still ignores the buffers; and
// RunV still scans every count on the calling rank, including entries
// outside that rank's neighborhood.
func TestRunContractAfterSplit(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 2}
	g, err := vgraph.FromOutLists(4, [][]int{{1}, {0}, {3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	naive := NewNaive(g)
	for _, tc := range []struct {
		name    string
		phantom bool
		f       func(p *mpirt.Proc)
		want    string // "" = accepted
	}{
		{"zero m, real", false, func(p *mpirt.Proc) { naive.Run(p, nil, 0, nil) },
			"collective: message size 0 must be positive"},
		{"zero m, phantom", true, func(p *mpirt.Proc) { naive.Run(p, nil, 0, nil) },
			"collective: message size 0 must be positive"},
		{"short sbuf, real", false, func(p *mpirt.Proc) { naive.Run(p, make([]byte, 3), 8, make([]byte, 8)) },
			"collective: rank 0 sbuf length 3 != counts[0] 8"},
		{"long rbuf, real", false, func(p *mpirt.Proc) { naive.Run(p, make([]byte, 8), 8, make([]byte, 9)) },
			"collective: rank 0 rbuf length 9 != Σ incoming counts 8"},
		{"buffers ignored, phantom", true, func(p *mpirt.Proc) { naive.Run(p, make([]byte, 3), 8, nil) }, ""},
		// Rank 0 sends to and receives from rank 1 only: it never reads
		// counts[3].
		{"negative count elsewhere, real", false, func(p *mpirt.Proc) {
			naive.RunV(p, make([]byte, 8), []int{8, 8, 8, -1}, make([]byte, 8))
		}, "collective: negative count -1 for rank 3"},
		{"negative count elsewhere, phantom", true, func(p *mpirt.Proc) {
			naive.RunV(p, nil, []int{8, 8, 8, -1}, nil)
		}, "collective: negative count -1 for rank 3"},
	} {
		_, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: tc.phantom}, func(p *mpirt.Proc) {
			if p.Rank() == 0 {
				tc.f(p)
			} else if tc.want == "" && p.Rank() == 1 {
				naive.Run(p, nil, 8, nil)
			}
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "rank 0 panicked: "+tc.want+"\n")):
			t.Errorf("%s: got %v, want a rank 0 panic %q", tc.name, err, tc.want)
		}
	}
}

// TestUniformRunMatchesRunV pins the delegation: Run(m) must behave as
// RunV with uniform counts.
func TestUniformRunMatchesRunV(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 2)
	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	const m = 24
	counts := make([]int, c.Ranks())
	for i := range counts {
		counts[i] = m
	}
	_, err = mpirt.Run(mpirt.Config{Cluster: c}, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, m)
		fillPattern(sbuf, r)
		a := make([]byte, g.InDegree(r)*m)
		b := make([]byte, g.InDegree(r)*m)
		dh.Run(p, sbuf, m, a)
		dh.RunV(p, sbuf, counts, b)
		if !bytes.Equal(a, b) {
			panic("Run and RunV disagree")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentAllgather runs several iterations through one bound
// handle, updating the send buffer in place each round.
func TestPersistentAllgather(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 61)
	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	const m = 8
	_, err = mpirt.Run(mpirt.Config{Cluster: c}, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, m)
		rbuf := make([]byte, g.InDegree(r)*m)
		req, err := AllgatherInit(dh, p, sbuf, m, rbuf)
		if err != nil {
			panic(err)
		}
		for round := 0; round < 3; round++ {
			for i := range sbuf {
				sbuf[i] = byte(r*31 + round*7 + i)
			}
			req.Start()
			req.Wait()
			for j, u := range g.In(r) {
				for i := 0; i < m; i++ {
					if rbuf[j*m+i] != byte(u*31+round*7+i) {
						panic(fmt.Sprintf("rank %d round %d wrong data from %d", r, round, u))
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentMisuse checks the Start/Wait state machine.
func TestPersistentMisuse(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 2}
	g := erGraph(t, c.Ranks(), 1, 1)
	naive := NewNaive(g)
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
		req, err := AllgatherInit(naive, p, nil, 4, nil)
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			defer func() {
				if recover() == nil {
					panic("Wait without Start not rejected")
				}
			}()
			req.Run() // sends to peer so its collective completes
			req.Wait()
		} else {
			req.Run()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLeaderBasedAllgatherv: the hierarchical baseline under ragged
// sizes, including clusters where leaders have no remote duties.
func TestLeaderBasedAllgatherv(t *testing.T) {
	shapes := []topology.Cluster{
		{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2},
		{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 5},
		{Nodes: 6, SocketsPerNode: 1, RanksPerSocket: 1, NodesPerGroup: 3},
	}
	for _, c := range shapes {
		for _, delta := range []float64{0.1, 0.6} {
			g := erGraph(t, c.Ranks(), delta, 53)
			lb, err := NewLeaderBased(g, c)
			if err != nil {
				t.Fatal(err)
			}
			counts := raggedCounts(c.Ranks(), 99)
			runAndCheckV(t, c, g, lb, counts)
		}
	}
}

// TestLeaderBasedMessageProfile: the hierarchy collapses inter-node
// messages to at most one per communicating node pair.
func TestLeaderBasedMessageProfile(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 6, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.7, 12)
	lb, err := NewLeaderBased(g, c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
		lb.Run(p, nil, 64, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	interNode := rep.MsgsByDist[topology.DistGroup] + rep.MsgsByDist[topology.DistGlobal]
	maxPairs := int64(c.Nodes * (c.Nodes - 1))
	if interNode > maxPairs {
		t.Fatalf("leader-based sent %d inter-node messages, max %d node pairs", interNode, maxPairs)
	}
}

// TestMultiLeaderCorrect: 2 and 4 leaders per node, uniform and ragged.
func TestMultiLeaderCorrect(t *testing.T) {
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	for _, k := range []int{2, 4, 99} { // 99 clamps to ranks-per-node
		for _, delta := range []float64{0.15, 0.6} {
			g := erGraph(t, c.Ranks(), delta, 71)
			lb, err := NewLeaderBasedK(g, c, k)
			if err != nil {
				t.Fatal(err)
			}
			counts := raggedCounts(c.Ranks(), int64(k)*31)
			runAndCheckV(t, c, g, lb, counts)
		}
	}
	if _, err := NewLeaderBasedK(erGraph(t, c.Ranks(), 0.5, 1), c, 0); err == nil {
		t.Fatal("accepted zero leaders")
	}
}

// TestMultiLeaderRelievesBottleneck: with bandwidth-bound messages,
// spreading node-pair traffic over several leaders must beat the
// single leader.
func TestMultiLeaderRelievesBottleneck(t *testing.T) {
	c := topology.Cluster{Nodes: 8, SocketsPerNode: 2, RanksPerSocket: 6, NodesPerGroup: 4}
	g := erGraph(t, c.Ranks(), 0.5, 5)
	timeOf := func(k int) float64 {
		lb, err := NewLeaderBasedK(g, c, k)
		if err != nil {
			t.Fatal(err)
		}
		var res float64
		_, err = mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
			p.SyncResetTime()
			lb.Run(p, nil, 256<<10, nil)
			v := p.CollectiveTime()
			if p.Rank() == 0 {
				res = v
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := timeOf(1), timeOf(4)
	if four >= one {
		t.Fatalf("4 leaders (%.3g s) not faster than 1 (%.3g s) for 256KB messages", four, one)
	}
	t.Logf("256KB leader-based: 1 leader %.3gms, 4 leaders %.3gms (%.2fx)", one*1e3, four*1e3, one/four)
}

// TestPlanOpSize pins the IR's footprint: the mega-scale cells
// materialise millions of ops.
func TestPlanOpSize(t *testing.T) {
	if got := unsafe.Sizeof(PlanOp{}); got != planOpBytes || got > 24 {
		t.Fatalf("PlanOp is %d bytes, planOpBytes %d, budget 24", got, planOpBytes)
	}
}

// TestInterpreterRejectsBrokenPlans: a hand-broken plan must stop the
// receiving rank with a message naming it, in phantom and real mode
// alike, never mis-deliver silently. The edge rows are alltoall-layout
// plans over the same graph (block 0 = segment 0→1, block 1 = 2→1).
func TestInterpreterRejectsBrokenPlans(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 3}
	both, err := vgraph.FromOutLists(3, [][]int{{1}, {}, {1}}) // 0→1, 2→1
	if err != nil {
		t.Fatal(err)
	}
	only0, err := vgraph.FromOutLists(3, [][]int{{1}, {}, {}}) // 0→1
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{3, 5, 7}
	const tag = 1
	none := func(*PlanBuilder) {}
	for _, tc := range []struct {
		name  string
		g     *vgraph.Graph
		edge  bool
		ranks [3]func(b *PlanBuilder)
		want  string
		// realOnly: phantom mode tracks no holdings to miss the block in.
		realOnly bool
	}{
		{"dropped block", both, false, [3]func(*PlanBuilder){
			func(b *PlanBuilder) { b.Send(1, tag, 0, 0) },
			func(b *PlanBuilder) { b.Recv(0, tag, 0, 0, 2); b.Wait(0, 1) },
			none,
		}, "rank 1 expected 10 bytes from 0, got 3", false},
		{"wrong block size", both, false, [3]func(*PlanBuilder){
			func(b *PlanBuilder) { b.Send(1, tag, Deliver, 0) },
			func(b *PlanBuilder) { b.Recv(0, tag, Deliver, 2); b.Wait(0, 1) },
			none,
		}, "rank 1 expected 7 bytes from 0, got 3", false},
		{"wait on a non-receive", both, false, [3]func(*PlanBuilder){
			func(b *PlanBuilder) { b.Send(1, tag, Deliver, 0) },
			func(b *PlanBuilder) { b.Recv(0, tag, Deliver, 0); b.Wait(0, 2) },
			none,
		}, "rank 1 wait at op 1 names op 1, not a pending receive", false},
		{"non-in-neighbor delivery", only0, false, [3]func(*PlanBuilder){
			func(b *PlanBuilder) { b.Send(1, tag, Deliver, 0) },
			func(b *PlanBuilder) { b.Recv(0, tag, Deliver, 0); b.Recv(2, tag, Deliver, 2); b.Wait(0, 2) },
			func(b *PlanBuilder) { b.Send(1, tag, Deliver, 2) },
		}, "rank 1 received payload of non-in-neighbor 2 from 2", false},
		{"dropped segment", both, true, [3]func(*PlanBuilder){
			func(b *PlanBuilder) { b.Send(1, tag, 0, 0) },
			func(b *PlanBuilder) { b.Recv(0, tag, 0, 0, 1); b.Wait(0, 1) },
			none,
		}, "rank 1 expected 8 bytes from 0, got 3", false},
		{"segment delivered off its edge", both, true, [3]func(*PlanBuilder){
			func(b *PlanBuilder) { b.Send(2, tag, Deliver, 0) },
			none,
			func(b *PlanBuilder) { b.Recv(0, tag, Deliver, 0); b.Wait(0, 1) },
		}, "rank 2 received payload of segment 0→1, addressed elsewhere from 0", false},
		{"segment sent before it is held", both, true, [3]func(*PlanBuilder){
			none,
			func(b *PlanBuilder) { b.Send(2, tag, 0, 0) },
			func(b *PlanBuilder) { b.Recv(1, tag, 0, 0); b.Wait(0, 1) },
		}, "rank 1 uses block 0 not in buffer", true},
	} {
		b := NewPlanBuilder(tc.g, 0, 0)
		if tc.edge {
			b = NewAlltoallPlanBuilder(tc.g, 0, 0)
		}
		for _, f := range tc.ranks {
			f(b)
			b.EndRank()
		}
		pl := b.Plan()
		for _, phantom := range []bool{true, false} {
			if phantom && tc.realOnly {
				continue
			}
			_, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: phantom}, func(p *mpirt.Proc) {
				r := p.Rank()
				lo, hi := pl.Owned(r)
				send, recv := 0, 0
				for _, n := range counts[lo:hi] {
					send += n
				}
				for _, u := range tc.g.In(r) {
					recv += counts[pl.InBlock(u, r)]
				}
				pl.run(p, make([]byte, send), counts, make([]byte, recv))
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (phantom=%v): error %v, want it to contain %q", tc.name, phantom, err, tc.want)
			}
		}
	}
}

// referenceNaive is the hand-written naive body the interpreter
// replaced, kept as the allocation yardstick.
func referenceNaive(g *vgraph.Graph, p mpirt.Endpoint, counts []int) {
	r := p.Rank()
	for _, v := range g.Out(r) {
		p.Send(v, tags.Naive, counts[r], nil, nil)
	}
	for _, u := range g.In(r) {
		msg := p.Recv(u, tags.Naive)
		msg.Release()
	}
}

// TestInterpreterPhantomAllocs: a phantom-mode interpreter pass costs
// at most one allocation per rank (the pass's posted-receive bitset)
// over the hand-written Send/Recv body, which allocates nothing of its
// own — no maps, nothing per message.
func TestInterpreterPhantomAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				// The counts cover the whole run, runtime included, and the
				// race detector makes sync.Pool drop items at random.
				t.Skip("allocation counts are not repeatable under -race")
			}
		}
	}
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.4, 3)
	counts := uniformCounts(g.N(), 64)
	measure := func(body func(p *mpirt.Proc)) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true, Engine: mpirt.EngineEvent}, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	ref := measure(func(p *mpirt.Proc) { referenceNaive(g, p, counts) })
	naive := NewNaive(g)
	got := measure(func(p *mpirt.Proc) { naive.RunV(p, nil, counts, nil) })
	t.Logf("interpreter %.0f allocs per run, hand-written naive body %.0f", got, ref)
	if got > ref+float64(g.N()) {
		t.Errorf("interpreter pass allocates %.0f objects per run, over the hand-written naive body's %.0f + 1 per rank", got, ref)
	}
}

// spyOp records the counts slice each rank's RunV receives.
type spyOp struct {
	*Allgather
	seen []*int
}

func (s *spyOp) RunV(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	s.seen[p.Rank()] = &counts[0]
	s.Allgather.RunV(p, sbuf, counts, rbuf)
}

// TestUniformCountsShared: every rank's Run, RunFTV over uniformFor and
// AllgatherInit on one op reads the same memoised uniform-counts array
// — an n-entry slice per rank per call is O(n²) churn at mega scale.
func TestUniformCountsShared(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 2}
	g := erGraph(t, c.Ranks(), 0.6, 5)
	const m = 16
	n := g.N()
	spy := &spyOp{Allgather: NewNaive(g), seen: make([]*int, n)}
	ft, init := make([]*int, n), make([]*int, n)
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
		r := p.Rank()
		if _, err := RunFTV(p, spy, nil, uniformFor(spy, m), nil); err != nil {
			panic(err)
		}
		ft[r] = spy.seen[r]
		pr, err := AllgatherInit(spy, p, nil, m, nil)
		if err != nil {
			panic(err)
		}
		init[r] = &pr.counts[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &spy.uniform(m)[0] // what Run passes the interpreter
	for r := 0; r < n; r++ {
		if ft[r] != want || init[r] != want {
			t.Errorf("rank %d: RunFTV counts %p, AllgatherInit counts %p, want the op's memoised %p", r, ft[r], init[r], want)
		}
	}
}
