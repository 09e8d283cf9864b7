package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The recovery and degradation sections quantify what a fault costs
// each self-healing algorithm: healthy completion time against
// completion time with one crashed rank (recovery) or with injected
// link faults (degradation). Degrade-only scenarios (slower
// uplinks/NICs) measure pure bandwidth loss on a shared random graph;
// the nic-down scenario measures the full detect → revoke → agree →
// topology-aware-rebuild path on a graph that keeps the wounded node
// feasible (its ranks only talk among themselves).

// degScenario pairs a fault schedule with the graph it must run on and
// the CN share-group size that makes the scenario meaningful.
type degScenario struct {
	name   string
	graph  *vgraph.Graph
	faults []netmodel.LinkFault
	cnK    int
}

// degradationScenarios builds the measured fabric woundings for c.
func degradationScenarios(c topology.Cluster, seed int64) ([]degScenario, error) {
	n := c.Ranks()
	er, err := vgraph.ErdosRenyi(n, 0.5, seed)
	if err != nil {
		return nil, err
	}
	// Island graph: node 1's ranks keep only intra-node edges, so its
	// NIC can die and every remaining edge stays deliverable.
	perNode := n / c.Nodes
	island := func(r int) bool { return r/perNode == 1 }
	lists := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, v := range er.Out(u) {
			if island(u) == island(v) {
				lists[u] = append(lists[u], v)
			}
		}
	}
	// Keep the island internally connected even if the ER draw missed
	// an edge (a rank with no out-edges is fine; an unreachable segment
	// is not — the ring guarantees delivery coverage).
	for r := perNode; r < 2*perNode; r++ {
		if next := perNode + (r+1-perNode)%perNode; next != r && !slices.Contains(lists[r], next) {
			lists[r] = append(lists[r], next)
		}
	}
	relay, err := vgraph.FromOutLists(n, lists)
	if err != nil {
		return nil, err
	}
	degradeUplinks := make([]netmodel.LinkFault, c.Groups())
	for g := range degradeUplinks {
		degradeUplinks[g] = netmodel.LinkDegraded(netmodel.UplinkOf(g), 0, 4)
	}
	degradeNICs := make([]netmodel.LinkFault, c.Nodes)
	for nd := range degradeNICs {
		degradeNICs[nd] = netmodel.LinkDegraded(netmodel.NICOf(nd), 0, 4)
	}
	// The nic-down scenario only exercises the repair path when some
	// relay schedule crosses the dead NIC: CN's rank-consecutive share
	// chunks must straddle the island boundary, so pick the smallest
	// chunk size that does not divide the per-node rank count.
	straddleK := 3
	for perNode%straddleK == 0 && straddleK <= perNode {
		straddleK++
	}
	return []degScenario{
		{"uplinks-degraded-4x", er, degradeUplinks, 2},
		{"nics-degraded-4x", er, degradeNICs, 2},
		{"nic-down", relay, []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(1), 0)}, straddleK},
	}, nil
}

// allOps builds every algorithm of the table over g with CN share-group
// size cnK: the set the recovery and degradation tables measure.
func allOps(g *vgraph.Graph, c topology.Cluster, cnK int) ([]collective.Op, error) {
	var ops []collective.Op
	for _, algo := range collective.Algos() {
		op, err := collective.New(algo, g, c, collective.PlanParams{CNGroup: cnK}, nil)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// recovery measures one mid-schedule crash per self-healing algorithm
// at a single representative cell.
func recovery(w io.Writer, o *opts) error {
	const density, msg = 0.5, 1 << 10
	c := o.cluster(o.rsg)
	kill := mpirt.Kill{Rank: c.Ranks() / 2, AfterOps: 4}
	fmt.Fprintf(w, "recovery cluster: %s, ER δ=%.2f seed %d, %s payloads, rank %d killed after %d ops\n",
		c, density, o.seed, harness.FmtBytes(msg), kill.Rank, kill.AfterOps)
	g, err := vgraph.ErdosRenyi(c.Ranks(), density, o.seed+int64(density*1000))
	if err != nil {
		return err
	}
	ops, err := allOps(g, c, 2)
	if err != nil {
		return err
	}
	cfg := harness.Config{Cluster: c, MsgSize: msg, Phantom: true, WallLimit: o.wall}
	recs, err := sweep.Map(context.Background(), len(ops), func(i int) (harness.FaultResult, error) {
		res, err := harness.MeasureFault(cfg, ops[i], []mpirt.Kill{kill}, nil)
		if err != nil {
			return res, fmt.Errorf("recovery %s: %w", ops[i].Name(), err)
		}
		return res, nil
	})
	if err != nil {
		return firstErr(err)
	}
	fmt.Fprintf(w, "\n== Fail-stop recovery overhead (healthy vs one crash, per self-healing algorithm) ==\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algo\thealthy\twith crash\toverhead\trecovered\trounds\tsurvivors\tdead ranks\tdetections\tdetect time\trepair")
	for i, r := range recs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%t\t%d\t%d\t%v\t%d\t%s\t%s\n", ops[i].Name(),
			harness.FmtTime(r.Baseline), harness.FmtTime(r.Faulted), harness.FmtTime(r.Overhead),
			r.Recovered, r.Rounds, r.Survivors, r.DeadRanks, r.Detections, harness.FmtTime(r.DetectTime), r.Repair)
	}
	return tw.Flush()
}

// degradation measures every scenario of degradationScenarios under
// every algorithm.
func degradation(w io.Writer, o *opts) error {
	c := o.cluster(o.rsg)
	// A degraded-uplink scenario needs uplinks that carry traffic:
	// re-group single-group clusters so the fabric has a global tier
	// to wound.
	if c.Groups() < 2 && c.Nodes >= 2 {
		c.NodesPerGroup = (c.Nodes + 1) / 2
	}
	fmt.Fprintf(w, "degradation cluster: %s, %s payloads, seed %d\n", c, harness.FmtBytes(o.degMsg), o.seed)
	scenarios, err := degradationScenarios(c, o.seed)
	if err != nil {
		return err
	}
	type job struct {
		sc degScenario
		op collective.Op
	}
	var jobs []job
	for _, sc := range scenarios {
		ops, err := allOps(sc.graph, c, sc.cnK)
		if err != nil {
			return err
		}
		for _, op := range ops {
			jobs = append(jobs, job{sc, op})
		}
	}
	cfg := harness.Config{Cluster: c, MsgSize: o.degMsg, Phantom: true, WallLimit: o.wall}
	results, err := sweep.Map(context.Background(), len(jobs), func(i int) (harness.FaultResult, error) {
		res, err := harness.MeasureFault(cfg, jobs[i].op, nil, jobs[i].sc.faults)
		if err != nil {
			return res, fmt.Errorf("degradation %s/%s: %w", jobs[i].sc.name, jobs[i].op.Name(), err)
		}
		return res, nil
	})
	if err != nil {
		return firstErr(err)
	}
	fmt.Fprintf(w, "\n== Degraded-fabric overhead (healthy vs wounded fabric, per self-healing algorithm) ==\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\talgo\thealthy\tdegraded\toverhead\tslowdown\trecovered\trounds\trepair\tlink detections\tlink detect time")
	for i, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.2fx\t%t\t%d\t%s\t%d\t%s\n", jobs[i].sc.name, jobs[i].op.Name(),
			harness.FmtTime(r.Baseline), harness.FmtTime(r.Faulted), harness.FmtTime(r.Overhead), r.Slowdown,
			r.Recovered, r.Rounds, r.Repair, r.LinkDetections, harness.FmtTime(r.LinkDetectTime))
	}
	return tw.Flush()
}
