package harness

import (
	"errors"
	"testing"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

func TestMeasureRecovery(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := collective.NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: c, MsgSize: 1 << 10, Phantom: true}
	res, err := MeasureFault(cfg, dh, []mpirt.Kill{{Rank: 3, AfterOps: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
		t.Fatalf("baseline %v, want > 0", res.Baseline)
	}
	if !res.Recovered {
		t.Fatalf("early kill did not trigger recovery: %+v", res)
	}
	if res.Faulted <= res.Baseline {
		t.Fatalf("recovery cost invisible: baseline %v, failed %v", res.Baseline, res.Faulted)
	}
	if res.Survivors != c.Ranks()-1 || len(res.DeadRanks) != 1 || res.DeadRanks[0] != 3 {
		t.Fatalf("survivor accounting wrong: %+v", res)
	}
	if res.Detections == 0 || res.DetectTime <= 0 {
		t.Fatalf("detection cost missing: %+v", res)
	}
	if res.Repair == "" {
		t.Fatalf("no repair recorded: %+v", res)
	}
}

// TestMeasureRecoveryRejectsRankZeroVictim pins that a victim must be
// a rank other than 0 (it records the measurement) inside the
// communicator.
func TestMeasureRecoveryRejectsRankZeroVictim(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := collective.NewNaive(g)
	for _, victim := range []int{0, -1, c.Ranks()} {
		if _, err := MeasureFault(Config{Cluster: c, MsgSize: 64, Phantom: true}, op, []mpirt.Kill{{Rank: victim}}, nil); err == nil {
			t.Errorf("victim rank %d accepted", victim)
		}
	}
}

// TestMeasureDegradation pins that a degraded uplink makes the
// self-healing collective measurably slower without triggering the
// repair path.
func TestMeasureDegradation(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := collective.NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	// Messages big enough that bandwidth terms dominate latency, so an
	// 8× effective-bandwidth cut is visible in the completion time.
	// The default (event) engine makes the comparison a pure function
	// of the config.
	cfg := Config{Cluster: c, MsgSize: 1 << 20, Phantom: true}
	res, err := MeasureFault(cfg, dh, nil, []netmodel.LinkFault{
		netmodel.LinkDegraded(netmodel.UplinkOf(0), 0, 8),
		netmodel.LinkDegraded(netmodel.UplinkOf(1), 0, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
		t.Fatalf("baseline %v, want > 0", res.Baseline)
	}
	if res.Faulted <= res.Baseline || res.Slowdown <= 1 {
		t.Fatalf("degradation cost invisible: %+v", res)
	}
	if res.Recovered {
		t.Fatalf("degraded-only fabric took the repair path: %+v", res)
	}
	if res.LinkDetections != 0 {
		t.Fatalf("degraded resources charged down-detections: %+v", res)
	}
}

// TestMeasureDegradationRepairPath pins that a down NIC routes the
// measurement through the repair loop and the detections show up.
func TestMeasureDegradationRepairPath(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 1, RanksPerSocket: 2, NodesPerGroup: 2}
	// Node 1 (ranks 2,3) talks only to itself, so its dead NIC leaves
	// the graph feasible; the share groups straddling it must re-form.
	lists := make([][]int, c.Ranks())
	for u := 0; u < c.Ranks(); u++ {
		for v := 0; v < c.Ranks(); v++ {
			if u == v {
				continue
			}
			uIn, vIn := u == 2 || u == 3, v == 2 || v == 3
			if uIn == vIn && (!uIn || (u/2 == v/2)) {
				lists[u] = append(lists[u], v)
			}
		}
	}
	g, err := vgraph.FromOutLists(c.Ranks(), lists)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := collective.NewCommonNeighbor(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: c, MsgSize: 512, Phantom: true}
	res, err := MeasureFault(cfg, cn, nil, []netmodel.LinkFault{
		netmodel.LinkDown(netmodel.NICOf(1), 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered || res.Rounds == 0 || res.Repair == "" {
		t.Fatalf("down NIC did not route through repair: %+v", res)
	}
	if res.LinkDetections == 0 || res.LinkDetectTime <= 0 {
		t.Fatalf("link detection cost missing: %+v", res)
	}
	if res.Faulted <= res.Baseline {
		t.Fatalf("repair cost invisible: %+v", res)
	}
}

// TestMeasureDegradationPartitionVerdict pins that an unresolvable
// partition surfaces the repair layer's typed verdict as the error.
func TestMeasureDegradationPartitionVerdict(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 1, RanksPerSocket: 2, NodesPerGroup: 1}
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	op := collective.NewNaive(g)
	_, err = MeasureFault(Config{Cluster: c, MsgSize: 64, Phantom: true}, op, nil,
		[]netmodel.LinkFault{netmodel.Partition(0, 0)})
	var pe *mpirt.PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the repair layer's PartitionError", err)
	}
}

// TestMeasureDegradationRejectsEmptyFaults pins the input validation:
// a call with no fault at all, and a message size below 1.
func TestMeasureDegradationRejectsEmptyFaults(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := collective.NewNaive(g)
	if _, err := MeasureFault(Config{Cluster: c, MsgSize: 64, Phantom: true}, op, nil, nil); err == nil {
		t.Error("empty fault schedule accepted")
	}
	down := []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(1), 0)}
	if _, err := MeasureFault(Config{Cluster: c, MsgSize: 0, Phantom: true}, op, nil, down); err == nil {
		t.Error("message size 0 accepted")
	}
}
