package netmodel

import (
	"slices"
	"testing"

	"nbrallgather/internal/topology"
)

func niagara4() topology.Cluster {
	return topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
}

func mustModel(t *testing.T, c topology.Cluster, p Params) *Model {
	t.Helper()
	m, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := NiagaraParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Beta[0] = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero bandwidth")
	}
	bad = good
	bad.Alpha[2] = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative latency")
	}
	bad = good
	bad.CopyBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero copy bandwidth")
	}
	bad = good
	bad.NICPerMsg = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative NICPerMsg")
	}
}

func TestDistanceMonotoneCost(t *testing.T) {
	// rank 0 vs: itself, socket peer 1, node peer 4, group peer 8
	// (node 1), global peer 16 (node 2, group 1).
	const bytes = 4096
	prev := -1.0
	for _, dst := range []int{0, 1, 4, 8, 16} {
		c := mustModel(t, niagara4(), NiagaraParams()).Transfer(0, dst, bytes, 0)
		if c <= prev {
			t.Fatalf("cost to %d (%.3g) not greater than previous (%.3g)", dst, c, prev)
		}
		prev = c
	}
}

func TestTransferSerializesPort(t *testing.T) {
	m := mustModel(t, niagara4(), NiagaraParams())
	const bytes = 1 << 20
	a1 := m.Transfer(0, 1, bytes, 0)
	a2 := m.Transfer(0, 1, bytes, 0)
	if a2 <= a1 {
		t.Fatalf("second send (%.3g) not delayed behind first (%.3g)", a2, a1)
	}
	p := m.Params()
	perMsg := p.Alpha[topology.DistSocket] + float64(bytes)/p.Beta[topology.DistSocket]
	if diff := a2 - a1; diff < perMsg*0.99 || diff > perMsg*1.01 {
		t.Fatalf("port serialization spacing %.3g, want %.3g", diff, perMsg)
	}
}

func TestTransferSerializesNIC(t *testing.T) {
	m := mustModel(t, niagara4(), NiagaraParams())
	const bytes = 1 << 20
	// Two different ranks on node 0 send off-node concurrently: the
	// second transfer must queue behind the shared NIC.
	a1 := m.Transfer(0, 8, bytes, 0)
	a2 := m.Transfer(1, 9, bytes, 0)
	solo := mustModel(t, niagara4(), NiagaraParams()).Transfer(1, 9, bytes, 0)
	if a2 <= solo {
		t.Fatalf("NIC contention did not delay: contended %.3g, solo %.3g", a2, solo)
	}
	_ = a1
}

func TestIntraNodeSkipsNIC(t *testing.T) {
	m := mustModel(t, niagara4(), NiagaraParams())
	const bytes = 1 << 20
	m.Transfer(0, 8, bytes, 0) // loads node 0's NIC
	delayed := m.Transfer(1, 2, bytes, 0)
	solo := mustModel(t, niagara4(), NiagaraParams()).Transfer(1, 2, bytes, 0)
	if delayed != solo {
		t.Fatalf("intra-node transfer affected by NIC: %.3g vs %.3g", delayed, solo)
	}
}

func TestGlobalLinkContention(t *testing.T) {
	m := mustModel(t, niagara4(), NiagaraParams())
	const bytes = 4 << 20
	// Ranks on nodes 0 and 1 (both group 0) send to group 1
	// concurrently: the group's global link serializes them beyond
	// what their separate NICs would.
	m.Transfer(0, 16, bytes, 0)
	withGL := m.Transfer(8, 24, bytes, 0)

	p := NiagaraParams()
	p.GlobalLinkBandwidth = 0
	m2 := mustModel(t, niagara4(), p)
	m2.Transfer(0, 16, bytes, 0)
	withoutGL := m2.Transfer(8, 24, bytes, 0)
	if withGL <= withoutGL {
		t.Fatalf("global link added no contention: %.3g vs %.3g", withGL, withoutGL)
	}
}

func TestResetClearsResources(t *testing.T) {
	m := mustModel(t, niagara4(), NiagaraParams())
	first := m.Transfer(0, 8, 1<<20, 0)
	m.Transfer(0, 8, 1<<20, 0)
	m.Reset()
	if got := m.Transfer(0, 8, 1<<20, 0); got != first {
		t.Fatalf("post-Reset transfer %.3g differs from fresh %.3g", got, first)
	}
	if m.PortDrain(0) <= 0 {
		t.Fatal("PortDrain not tracking after reset")
	}
}

func TestCopyTime(t *testing.T) {
	m := mustModel(t, niagara4(), NiagaraParams())
	if m.CopyTime(0) != 0 {
		t.Fatal("zero-byte copy has nonzero cost")
	}
	if m.CopyTime(1<<20) <= 0 {
		t.Fatal("copy cost not positive")
	}
}

func TestUniformParamsFlat(t *testing.T) {
	p := UniformParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const bytes = 1 << 16
	cSock := mustModel(t, niagara4(), p).Transfer(0, 1, bytes, 0)
	cGlob := mustModel(t, niagara4(), p).Transfer(0, 16, bytes, 0)
	if cSock != cGlob {
		t.Fatalf("uniform params not distance-blind: %.3g vs %.3g", cSock, cGlob)
	}
}

func TestAlphaSerializedOnPort(t *testing.T) {
	// The paper's single-port Hockney assumption: n small messages
	// take ≈ n·α, not α + n·(m/β).
	m := mustModel(t, niagara4(), NiagaraParams())
	const n = 100
	var last float64
	for i := 0; i < n; i++ {
		last = m.Transfer(0, 16, 8, 0)
	}
	alpha := m.Params().Alpha[topology.DistGlobal]
	if last < float64(n-1)*alpha {
		t.Fatalf("100 tiny messages completed in %.3g, expected ≥ %.3g (α-serialized)", last, float64(n-1)*alpha)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(topology.Cluster{}, NiagaraParams()); err == nil {
		t.Error("accepted invalid cluster")
	}
	var p Params
	if _, err := New(niagara4(), p); err == nil {
		t.Error("accepted zero params")
	}
}

// TestRouteIsClusterDist: the fabric numbers ports, NICs, then uplinks,
// and Path classifies every pair as topology.Cluster.Dist does and
// crosses the sender's port, then both nodes' NICs off-node, then both
// groups' uplinks across groups — on a dense Dragonfly+, a flat
// network, a scattered allocation and a partly filled last group.
func TestRouteIsClusterDist(t *testing.T) {
	for _, c := range []topology.Cluster{
		topology.Niagara(5, 3),
		{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 2},
		topology.Niagara(7, 2).Scattered(3),
		{Nodes: 5, SocketsPerNode: 1, RanksPerSocket: 3, NodesPerGroup: 2},
	} {
		m, err := New(c, NiagaraParams())
		if err != nil {
			t.Fatal(err)
		}
		port, _ := m.Span(ResPort)
		nic, _ := m.Span(ResNIC)
		uplink, n := m.Span(ResUplink)
		if n != m.Resources() || n != c.Ranks()+c.Nodes+c.Groups() || port != 0 || nic != c.Ranks() || uplink != nic+c.Nodes {
			t.Fatalf("%v: %d resources, spans at %d, %d, %d", c, m.Resources(), port, nic, uplink)
		}
		for a := 0; a < c.Ranks(); a++ {
			for b := 0; b < c.Ranks(); b++ {
				pa := m.Path(a, b)
				d := c.Dist(a, b)
				want := []int32{int32(port + a)}
				if d >= topology.DistGroup {
					want = append(want, int32(nic+c.NodeOf(a)), int32(nic+c.NodeOf(b)))
				}
				if d == topology.DistGlobal {
					want = append(want, int32(uplink+c.GroupOf(a)), int32(uplink+c.GroupOf(b)))
				}
				got := pa.Hops()
				if pa.Dist != d || !slices.Equal(got, want) {
					t.Fatalf("%v: Path(%d, %d) = %v %v; want %v %v", c, a, b, pa.Dist, got, d, want)
				}
			}
		}
	}
	for i := range 5 {
		if Egress(i) != (i == 0 || i == 1 || i == 3) {
			t.Errorf("Egress(%d) = %v", i, Egress(i))
		}
	}
}
