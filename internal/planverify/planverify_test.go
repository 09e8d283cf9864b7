package planverify

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/conformance"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// TestMatrixClean is the full audit: every algorithm (including the
// repair variants) over every conformance shape and payload variant
// must verify clean on all invariants.
func TestMatrixClean(t *testing.T) {
	cases, err := Cases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 30 {
		t.Fatalf("verification matrix unexpectedly small: %d cases", len(cases))
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			s, err := cs.Extract()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range s.Verify() {
				t.Errorf("%s", f)
			}
		})
	}
}

// runtimeOp is the case's collective as a caller would run it: real
// payloads in, the ground truth rank r must receive out.
type runtimeOp struct {
	plan *collective.Plan
	run  func(p *mpirt.Proc, counts []int) (rbuf, want []byte)
}

// buildRuntimeOp constructs the case's collective through the public
// constructors, so the differential tests compare the plan Extract
// emitted against the op a caller would actually run.
func buildRuntimeOp(t *testing.T, cs Case) runtimeOp {
	t.Helper()
	g, c := cs.Shape.Graph, cs.Shape.Cluster
	if cs.Alltoall {
		op, err := collective.NewAlltoall(cs.Algo, g, c, cs.Params)
		if err != nil {
			t.Fatal(err)
		}
		return runtimeOp{op.Plan(), func(p *mpirt.Proc, counts []int) (rbuf, want []byte) {
			r := p.Rank()
			size := func(src, dst int) int { return counts[op.Plan().InBlock(src, dst)] }
			var sbuf []byte
			for _, v := range g.Out(r) {
				sbuf = append(sbuf, edgeFill(r, v, size(r, v))...)
			}
			for _, u := range g.In(r) {
				want = append(want, edgeFill(u, r, size(u, r))...)
			}
			rbuf = make([]byte, len(want))
			op.RunAV(p, sbuf, size, rbuf)
			return rbuf, want
		}}
	}
	op, err := collective.New(cs.Algo, g, c, cs.Params, cs.Avoid)
	if err != nil {
		t.Fatal(err)
	}
	return runtimeOp{op.Plan(), func(p *mpirt.Proc, counts []int) (rbuf, want []byte) {
		r := p.Rank()
		sbuf := make([]byte, counts[r])
		fill(sbuf, r)
		for _, u := range g.In(r) {
			seg := make([]byte, counts[u])
			fill(seg, u)
			want = append(want, seg...)
		}
		rbuf = make([]byte, len(want))
		op.RunV(p, sbuf, counts, rbuf)
		return rbuf, want
	}}
}

// edgeFill is the verification payload of alltoall segment src → dst.
func edgeFill(src, dst, size int) []byte {
	seg := make([]byte, size)
	for i := range seg {
		seg[i] = byte(src*251 + dst*17 + i*3 + 1)
	}
	return seg
}

// fill writes rank r's verification payload.
func fill(buf []byte, r int) {
	for i := range buf {
		buf[i] = byte(r*131 + i*7 + 3)
	}
}

// runReport executes the case's collective on the given engine with
// real payloads, checks every rank's receive buffer byte for byte, and
// returns the traffic report.
func runReport(t *testing.T, eng mpirt.Engine, cs Case, op runtimeOp) *mpirt.Report {
	t.Helper()
	g := cs.Shape.Graph
	bad := make([]bool, g.N())
	rep, err := mpirt.Run(mpirt.Config{Cluster: cs.Shape.Cluster, Ranks: g.N(), Engine: eng},
		func(p *mpirt.Proc) {
			rbuf, want := op.run(p, cs.Counts)
			bad[p.Rank()] = !bytes.Equal(rbuf, want)
		})
	if err != nil {
		t.Fatalf("%s on %q: %v", cs.Name, eng, err)
	}
	for r, b := range bad {
		if b {
			t.Errorf("%s on %q: rank %d receive buffer differs from the in-neighbor payloads", cs.Name, eng, r)
		}
	}
	return rep
}

// compareLoad requires the static accounting to equal the simulator's
// measured traffic bit-for-bit on every resource class.
func compareLoad(t *testing.T, label string, l *Load, rep *mpirt.Report) {
	t.Helper()
	if l.Msgs() != rep.Msgs() || l.Bytes() != rep.Bytes() {
		t.Errorf("%s: totals differ: static %d msgs / %d bytes, simulated %d / %d",
			label, l.Msgs(), l.Bytes(), rep.Msgs(), rep.Bytes())
	}
	if l.MsgsByDist != rep.MsgsByDist || l.BytesByDist != rep.BytesByDist {
		t.Errorf("%s: distance histograms differ: static %v/%v, simulated %v/%v",
			label, l.MsgsByDist, l.BytesByDist, rep.MsgsByDist, rep.BytesByDist)
	}
	if !reflect.DeepEqual(l.ResMsgs, rep.ResMsgs) || !reflect.DeepEqual(l.ResBytes, rep.ResBytes) {
		t.Errorf("%s: per-resource traffic differs: static %v/%v, simulated %v/%v",
			label, l.ResMsgs, l.ResBytes, rep.ResMsgs, rep.ResBytes)
	}
}

// randomCounts draws per-source sizes in [0, 2m], a third of them zero.
func randomCounts(rng *rand.Rand, n, m int) []int {
	counts := make([]int, n)
	for i := range counts {
		if rng.Intn(3) > 0 {
			counts[i] = rng.Intn(2*m + 1)
		}
	}
	return counts
}

// TestDifferentialTraffic pins the central equality of the verifier:
// static per-resource byte counts equal simulator-measured traffic on
// clean runs, on both execution engines, across the whole matrix — and
// again per case under random counts including zeros — with every
// receive buffer checked byte for byte.
func TestDifferentialTraffic(t *testing.T) {
	cases, err := Cases()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260928))
	for _, cs := range cases {
		cs := cs
		random := randomCounts(rng, len(cs.Counts), payloadM)
		t.Run(cs.Name, func(t *testing.T) {
			op := buildRuntimeOp(t, cs)
			for _, counts := range [][]int{cs.Counts, random} {
				cs.Counts = counts
				s, err := cs.Extract()
				if err != nil {
					t.Fatal(err)
				}
				// A plan that has run carries its derived matching: derive
				// both, and the comparison covers that too.
				s.Plan.Slots()
				op.plan.Slots()
				if !reflect.DeepEqual(s.Plan, op.plan) {
					t.Fatalf("%s: Extract and the constructor emitted different plans", cs.Name)
				}
				l := s.Load()
				for _, eng := range []mpirt.Engine{mpirt.EngineThreaded, mpirt.EngineEvent} {
					compareLoad(t, cs.Name+"/"+string(eng), l, runReport(t, eng, cs, op))
				}
			}
		})
	}
}

// TestQuickRandomPlans is the property sweep: random neighborhoods on
// random cluster shapes with random counts (zeros included) verify
// clean for every algorithm, the static load equals the measured
// traffic on both engines, and the receive buffers are byte-exact.
func TestQuickRandomPlans(t *testing.T) {
	prop := func(seed uint32, nodesU, socketsU, rpsU, densU, grpU uint8) bool {
		c, g, counts, err := quickShape(seed, nodesU, socketsU, rpsU, densU, grpU)
		if err != nil {
			t.Logf("graph: %v", err)
			return false
		}
		if g == nil {
			return true // too small for a 3-group CN plan
		}
		n, density := g.N(), g.Density()
		for _, algo := range Algos() {
			s, err := Extract(algo, g, c, counts, nil, Params{})
			if err != nil {
				t.Logf("%s extract: %v", algo, err)
				return false
			}
			if fs := s.Verify(); len(fs) != 0 {
				t.Logf("%s on n=%d δ=%.2f: %s", algo, n, density, fs[0])
				return false
			}
			l := s.Load()
			cs := Case{Name: algo, Algo: algo,
				Shape:  conformance.Shape{Cluster: c, Graph: g},
				Counts: counts}
			op := buildRuntimeOp(t, cs)
			for _, eng := range []mpirt.Engine{mpirt.EngineThreaded, mpirt.EngineEvent} {
				compareLoad(t, algo+"/"+string(eng), l, runReport(t, eng, cs, op))
			}
		}
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(20260808))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// quickShape draws a random neighborhood on a random cluster shape with
// random counts, zeros included; g is nil when the cluster has fewer
// than four ranks, too few for a 3-group CN plan.
func quickShape(seed uint32, nodesU, socketsU, rpsU, densU, grpU uint8) (c topology.Cluster, g *vgraph.Graph, counts []int, err error) {
	c = topology.Cluster{
		Nodes:          1 + int(nodesU%3),
		SocketsPerNode: 1 + int(socketsU%2),
		RanksPerSocket: 1 + int(rpsU%3),
	}
	if c.Nodes > 1 && grpU%2 == 1 {
		c.NodesPerGroup = 1 // per-node groups exercise the uplinks
	}
	n := c.Ranks()
	if n < 4 {
		return c, nil, nil, nil
	}
	g, err = vgraph.ErdosRenyi(n, 0.25+0.5*float64(densU)/255, int64(seed))
	if err != nil {
		return c, nil, nil, err
	}
	return c, g, randomCounts(rand.New(rand.NewSource(int64(seed))), n, 7), nil
}

// TestExtractMatchesBuildPlan: planverify's Params and the planner's
// BuildPlan resolve their defaults in one place, so the zero Params and
// param 0 emit the same plan for every algorithm, with and without an
// avoid set.
func TestExtractMatchesBuildPlan(t *testing.T) {
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 3}
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := conformance.RaggedCounts(g.N(), payloadM)
	avoid := make([]bool, g.N())
	avoid[2], avoid[9] = true, true
	for _, algo := range Algos() {
		for _, av := range [][]bool{nil, avoid} {
			s, err := Extract(algo, g, c, counts, av, Params{})
			if err != nil {
				t.Fatal(err)
			}
			v, cost, err := collective.BuildPlan(algo, g, c, 0, av)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.Plan, v) {
				t.Errorf("%s (avoid=%v): Extract and BuildPlan emitted different plans", algo, av != nil)
			}
			if cost != s.Plan.Bytes() {
				t.Errorf("%s: BuildPlan cost %d != Plan.Bytes() %d", algo, cost, s.Plan.Bytes())
			}
		}
	}
}

// fixtureCluster is a single-node shape for the hand-built fixtures.
var fixtureCluster = topology.Cluster{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 2}

func mustGraph(t *testing.T, n int, out [][]int) *vgraph.Graph {
	t.Helper()
	g, err := vgraph.FromOutLists(n, out)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// broken wraps a hand-built plan over g as a schedule with counts 3, 5.
func broken(b *collective.PlanBuilder) *Schedule {
	return &Schedule{Algo: "broken", Cluster: fixtureCluster, Plan: b.Plan(), Counts: []int{3, 5}}
}

const deliver = collective.Deliver

// TestBrokenDroppedBlock: a builder that forgets one delivery is
// caught by the completeness invariant with a canonical message.
func TestBrokenDroppedBlock(t *testing.T) {
	b := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {0}}), 0, 0)
	b.Recv(1, 1, deliver, 1) // rank 0 never sends its block to 1
	b.Wait(0, 1)
	b.EndRank()
	b.Send(0, 1, deliver, 1)
	b.EndRank()
	fs := broken(b).Verify()
	if len(fs) != 1 || fs[0].Invariant != InvCompleteness ||
		fs[0].Message != "edge 0→1 never delivered" {
		t.Fatalf("dropped block not caught canonically: %v", fs)
	}
}

// TestBrokenDuplicateDelivery: delivering the same block twice (on
// distinct tags, so matching stays clean) trips completeness.
func TestBrokenDuplicateDelivery(t *testing.T) {
	b := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {0}}), 0, 0)
	b.Send(1, 1, deliver, 0)
	b.Send(1, 2, deliver, 0)
	b.Recv(1, 1, deliver, 1)
	b.Wait(2, 3)
	b.EndRank()
	b.Recv(0, 1, deliver, 0)
	b.Recv(0, 2, deliver, 0)
	b.Send(0, 1, deliver, 1)
	b.Wait(0, 2)
	b.EndRank()
	fs := broken(b).Verify()
	if len(fs) != 1 || fs[0].Invariant != InvCompleteness ||
		fs[0].Message != "edge 0→1 delivered twice" {
		t.Fatalf("duplicate delivery not caught canonically: %v", fs)
	}
}

// TestBrokenTagCollision: two in-flight messages on one (src,dst,tag)
// channel trip the matching invariant on both endpoints.
func TestBrokenTagCollision(t *testing.T) {
	b := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {}}), 0, 0)
	b.Send(1, 7, deliver, 0)
	b.Send(1, 7, deliver, 0)
	b.EndRank()
	b.Recv(0, 7, deliver, 0)
	b.Recv(0, 7, deliver, 0)
	b.Wait(0, 2)
	b.EndRank()
	fs := broken(b).Verify()
	if len(fs) != 3 {
		t.Fatalf("tag collision findings = %v, want send+recv collision and duplicate delivery", fs)
	}
	if fs[0].Message != "tag collision: 2 sends on channel 0→1 tag 7 within one epoch" {
		t.Fatalf("send collision message = %q", fs[0].Message)
	}
	if fs[1].Message != "tag collision: 2 receives posted on channel 0→1 tag 7 within one epoch" {
		t.Fatalf("recv collision message = %q", fs[1].Message)
	}
	if fs[2].Invariant != InvCompleteness {
		t.Fatalf("expected the doubled delivery to also trip completeness: %v", fs[2])
	}
}

// TestBrokenSlotTable seeds the plan's own static matching
// (collective.Plan.Slots) with the two defects it could have against the
// verifier's: a table whose sends name each other's receives, and a
// table missing — or present — where the matching says the opposite.
func TestBrokenSlotTable(t *testing.T) {
	b := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {0}}), 0, 0)
	b.Recv(1, 1, deliver, 1)
	b.Send(1, 1, deliver, 0)
	b.Send(1, 2, 0, 0) // a forward nobody needs, so rank 1 posts two receives
	b.Wait(0, 1)
	b.EndRank()
	b.Recv(0, 1, deliver, 0)
	b.Recv(0, 2, 0, 0)
	b.Send(0, 1, deliver, 1)
	b.Wait(0, 2)
	b.EndRank()
	s := broken(b)
	if fs := s.Verify(); len(fs) != 0 {
		t.Fatalf("fixture is not clean: %v", fs)
	}
	slot, recvs := s.Plan.Slots()
	if want := []int32{0, 0, 1, -1, 0, 1, 0, -1}; !reflect.DeepEqual(slot, want) || !reflect.DeepEqual(recvs, []int32{1, 2}) {
		t.Fatalf("Plan.Slots() = %v, %v; want %v, [1 2]", slot, recvs, want)
	}
	m := s.match()
	swapped := append([]int32(nil), slot...)
	swapped[1], swapped[2] = swapped[2], swapped[1] // rank 0's two sends
	fs := s.checkSlots(m, swapped, []int32{1, 1})
	want := []Finding{
		{InvMatching, 0, "rank 0 send→1 tag 1 is hinted slot 1, its matching says 0"},
		{InvMatching, 0, "rank 0 send→1 tag 2 is hinted slot 0, its matching says 1"},
		{InvMatching, 1, "plan counts 1 receives, rank 1 posts 2"},
	}
	if !reflect.DeepEqual(fs, want) {
		t.Fatalf("swapped slots: findings %v, want %v", fs, want)
	}
	// A clean plan without a table; and a wildcard plan with one.
	fs = s.checkSlots(m, nil, nil)
	if len(fs) != 1 || fs[0].Message != "plan has slot hints: false, its matching is exact: true" {
		t.Fatalf("missing table: findings %v", fs)
	}
	w := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {}}), 0, 0)
	w.Send(1, 1, deliver, 0)
	w.EndRank()
	w.Recv(collective.AnySource, 1, deliver, 0)
	w.Wait(0, 1)
	w.EndRank()
	ws := broken(w)
	if fs := ws.Verify(); len(fs) != 0 {
		t.Fatalf("wildcard fixture is not clean (its plan must derive no table): %v", fs)
	}
	fs = ws.checkSlots(ws.match(), []int32{0, 0, -1}, []int32{0, 1})
	if len(fs) != 1 || fs[0].Message != "plan has slot hints: true, its matching is exact: false" {
		t.Fatalf("table on a wildcard plan: findings %v", fs)
	}
}

// TestBrokenRendezvousCycle: two ranks that each send before posting
// the matching receive are eager-safe but deadlock under rendezvous
// semantics; the cycle is printed canonically, minimum rank first.
func TestBrokenRendezvousCycle(t *testing.T) {
	b := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {0}}), 0, 0)
	b.Send(1, 5, deliver, 0)
	b.Recv(1, 6, deliver, 1)
	b.Wait(1, 2)
	b.EndRank()
	b.Send(0, 6, deliver, 1)
	b.Recv(0, 5, deliver, 0)
	b.Wait(1, 2)
	b.EndRank()
	fs := broken(b).Verify()
	want := "happens-before cycle under rendezvous semantics: " +
		"rank 0 send→1 tag 5 → rank 0 recv←1 tag 6 → rank 1 send→0 tag 6 → " +
		"rank 1 recv←0 tag 5 → rank 0 send→1 tag 5"
	if len(fs) != 1 || fs[0].Invariant != InvDeadlock || fs[0].Message != want {
		t.Fatalf("rendezvous cycle not caught canonically:\n got %v\nwant %s", fs, want)
	}
}

// TestAvailabilityViolation: a send of a block the rank cannot yet
// hold is a completeness violation even when every edge is covered.
func TestAvailabilityViolation(t *testing.T) {
	b := collective.NewPlanBuilder(mustGraph(t, 2, [][]int{{1}, {0}}), 0, 0)
	b.Send(1, 1, deliver, 0, 1) // rank 0 forwards block 1 before ever receiving it
	b.Recv(1, 1, deliver, 1)
	b.Wait(1, 2)
	b.EndRank()
	b.Recv(0, 1, deliver, 0, 1)
	b.Send(0, 1, deliver, 1)
	b.Wait(0, 1)
	b.EndRank()
	s := broken(b)
	found := false
	for _, f := range s.Verify() {
		if f.Invariant == InvCompleteness &&
			f.Message == "rank 0 sends block 1 to 1 (tag 1) before holding it" {
			found = true
		}
	}
	if !found {
		t.Fatalf("data-availability violation not caught: %v", s.Verify())
	}
}

// TestBrokenReceiverDisagrees: the interpreter acts on the receive
// op's flags and expected blocks and on a wait's receive index, so
// Verify rejects a receive that disagrees with its send, a wait naming
// a non-receive, and a staging copy of a foreign block. The edge rows
// build the same two ranks in the alltoall layout (block 0 is the one
// segment 0→1): a dropped segment, one landed where it is not
// addressed, and one sent before it is held.
func TestBrokenReceiverDisagrees(t *testing.T) {
	send := func(b *collective.PlanBuilder) { b.Send(1, 1, deliver, 0) }
	recv := func(b *collective.PlanBuilder) { b.Recv(0, 1, deliver, 0); b.Wait(0, 1) }
	for _, tc := range []struct {
		name string
		edge bool
		send func(b *collective.PlanBuilder) // rank 0: its Deliver send of block 0, unless the row breaks it
		recv func(b *collective.PlanBuilder) // rank 1's side
		want string
	}{
		{"flags", false, send, func(b *collective.PlanBuilder) { b.Recv(0, 1, 0, 0); b.Wait(0, 1) },
			"receive posted by 1 from 0 tag 1 has flags 000, its send 001"},
		{"blocks", false, send, func(b *collective.PlanBuilder) { b.Recv(0, 1, deliver, 1); b.Wait(0, 1) },
			"receive posted by 1 from 0 tag 1 expects blocks [1], its send carries [0]"},
		{"wait", false, send, func(b *collective.PlanBuilder) { b.Recv(0, 1, deliver, 0); b.Wait(0, 2) },
			"wait at op 1 names op 1, which is not a receive"},
		{"twice", false, send, func(b *collective.PlanBuilder) { b.Recv(0, 1, deliver, 0); b.Wait(0, 1); b.Wait(0, 1) },
			"receive at op 0 is waited on twice"},
		{"stage", false, send, func(b *collective.PlanBuilder) { b.Recv(0, 1, deliver, 0); b.Wait(0, 1); b.Copy(0, 0) },
			"rank 1 stages block 0, not its own"},
		{"edge dropped", true, func(*collective.PlanBuilder) {}, func(*collective.PlanBuilder) {},
			"edge 0→1 never delivered"},
		{"edge misdelivered", true, func(b *collective.PlanBuilder) { send(b); b.Copy(0, deliver) }, recv,
			"rank 0 delivers block 0 to 0 but it is the segment of edge 0→1"},
		{"edge sent early", true, func(b *collective.PlanBuilder) { b.Recv(1, 2, 0, 0); send(b); b.Wait(0, 1) },
			func(b *collective.PlanBuilder) { b.Recv(0, 1, deliver, 0); b.Send(0, 2, 0, 0); b.Wait(0, 1) },
			"rank 1 sends block 0 to 0 (tag 2) before holding it"},
	} {
		g := mustGraph(t, 2, [][]int{{1}, {}})
		b := collective.NewPlanBuilder(g, 0, 0)
		if tc.edge {
			b = collective.NewAlltoallPlanBuilder(g, 0, 0)
		}
		tc.send(b)
		b.EndRank()
		tc.recv(b)
		b.EndRank()
		fs := broken(b).Verify()
		if len(fs) != 1 || fs[0].Message != tc.want {
			t.Errorf("%s: findings %v, want exactly %q", tc.name, fs, tc.want)
		}
	}
}

// TestPlanBytesPinned: the plan cache's cost of the four allgather
// plans over the first conformance shape, as the pre-layout IR had it.
func TestPlanBytesPinned(t *testing.T) {
	shapes, err := conformance.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	sh := shapes[0] // 2n2s3l/er35
	for algo, want := range map[string]int64{"naive": 1644, "dh": 2192, "cn": 2408, "leader": 2396} {
		_, cost, err := collective.BuildPlan(algo, sh.Graph, sh.Cluster, 0, nil)
		if err != nil || cost != want {
			t.Errorf("%s/%s: Plan.Bytes() %d (err %v), want %d", sh.Name, algo, cost, err, want)
		}
	}
}

// TestLoadAccountingSmall pins the static accounting on a hand-checked
// two-node shape.
func TestLoadAccountingSmall(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 1, RanksPerSocket: 1, NodesPerGroup: 1}
	g := mustGraph(t, 2, [][]int{{1}, {0}})
	s, err := Extract("naive", g, c, []int{3, 5}, nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	l := s.Load()
	if l.Msgs() != 2 || l.Bytes() != 8 {
		t.Fatalf("totals = %d msgs / %d bytes, want 2/8", l.Msgs(), l.Bytes())
	}
	if l.MsgsByDist[topology.DistGlobal] != 2 {
		t.Fatalf("per-node groups must classify cross-node sends as global: %v", l.MsgsByDist)
	}
	nic, uplink := l.BytesOf(netmodel.ResNIC), l.BytesOf(netmodel.ResUplink)
	if !slices.Equal(nic, []int64{3, 5}) || !slices.Equal(uplink, []int64{3, 5}) {
		t.Fatalf("resource charges wrong: NIC %v uplink %v", nic, uplink)
	}
	if r := RatioMaxMin(l.BytesOf(netmodel.ResPort)); r != 5.0/3.0 {
		t.Fatalf("RatioMaxMin = %v", r)
	}
	if r := RatioMaxMean(l.BytesOf(netmodel.ResPort)); r != 5.0*2/8 {
		t.Fatalf("RatioMaxMean = %v", r)
	}
}

// TestBrokenFindingOrder pins the order of the findings, not only their
// text: collisions come in the order their channels first appear in a
// (rank, index) scan — through a send or a receive, and not in channel
// order — then the (rank, index) sweep for unmatched and never-waited
// ops, then completeness in the eager order. Each row gives one program
// per rank.
func TestBrokenFindingOrder(t *testing.T) {
	type prog = func(b *collective.PlanBuilder)
	for _, tc := range []struct {
		name  string
		out   [][]int
		ranks []prog
		want  []string
	}{
		{"collisions", [][]int{{1, 2}, {}, {0}}, []prog{
			func(b *collective.PlanBuilder) {
				b.Recv(2, 3, deliver, 2) // first sight of channel 2→0; never waited on
				b.Send(2, 9, deliver, 0)
				b.Send(2, 9, deliver, 0) // collides, and rank 2 posts one receive
				b.Send(1, 7, deliver, 0)
				b.Send(1, 7, deliver, 0) // collides on a channel that sorts first
				b.Send(1, 8, deliver, 0) // nobody receives tag 8
			},
			func(b *collective.PlanBuilder) {
				b.Recv(0, 7, deliver, 0)
				b.Recv(0, 7, deliver, 0)
				b.Wait(0, 2)
			},
			func(b *collective.PlanBuilder) {
				b.Recv(0, 9, deliver, 0)
				b.Wait(0, 1)
				b.Send(0, 3, deliver, 2)
			},
		}, []string{
			"[matching] rank 0: tag collision: 2 sends on channel 0→2 tag 9 within one epoch",
			"[matching] rank 0: tag collision: 2 sends on channel 0→1 tag 7 within one epoch",
			"[matching] rank 1: tag collision: 2 receives posted on channel 0→1 tag 7 within one epoch",
			"[matching] rank 0: receive posted by 0 from 2 tag 3 is never waited on",
			"[matching] rank 0: send 0→2 tag 9 is never received",
			"[matching] rank 0: send 0→1 tag 8 is never received",
			"[completeness] rank 0: edge 0→1 delivered twice",
			"[completeness] edge 2→0 never delivered",
		}},
		{"wildcards", [][]int{{2}, {2}, {}}, []prog{
			func(b *collective.PlanBuilder) {
				b.Send(2, 5, deliver, 0)
				b.Send(2, 5, deliver, 0) // the collision's second send is the wildcard's first candidate
			},
			func(b *collective.PlanBuilder) { b.Send(2, 5, deliver, 1) },
			func(b *collective.PlanBuilder) {
				b.Recv(0, 5, deliver, 0)
				b.Recv(collective.AnySource, 5, deliver, 0)
				b.Recv(collective.AnySource, 5, deliver, 1)
				b.Recv(collective.AnySource, 6, deliver, 1)
				b.Wait(0, 4)
			},
		}, []string{
			"[matching] rank 0: tag collision: 2 sends on channel 0→2 tag 5 within one epoch",
			"[matching] rank 2: wildcard receive tag 5 is ambiguous: 2 candidate sources and payloads are not self-describing",
			"[matching] rank 2: receive posted by 2 from * tag 6 is never satisfied",
			"[completeness] rank 0: edge 0→2 delivered twice",
		}},
	} {
		b := collective.NewPlanBuilder(mustGraph(t, len(tc.out), tc.out), 0, 0)
		for _, emit := range tc.ranks {
			emit(b)
			b.EndRank()
		}
		var got []string
		for _, f := range broken(b).Verify() {
			got = append(got, f.String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: findings\n  %q\nwant\n  %q", tc.name, got, tc.want)
		}
	}
}
