package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The -degradation mode quantifies what a wounded fabric costs each
// self-healing algorithm: healthy completion time against completion
// time under injected link faults. Degrade-only scenarios (slower
// uplinks/NICs) measure pure bandwidth loss on a shared random graph;
// the nic-down scenario measures the full detect → revoke → agree →
// topology-aware-rebuild path on a graph that keeps the wounded node
// feasible (its ranks only talk among themselves).

type degRow struct {
	Algo            string  `json:"algo"`
	Scenario        string  `json:"scenario"`
	BaselineS       float64 `json:"baseline_s"`
	DegradedS       float64 `json:"degraded_s"`
	OverheadS       float64 `json:"overhead_s"`
	Slowdown        float64 `json:"slowdown"`
	Recovered       bool    `json:"recovered"`
	Rounds          int     `json:"rounds"`
	Repair          string  `json:"repair"`
	LinkDetections  int64   `json:"link_detections"`
	LinkDetectTimeS float64 `json:"link_detect_time_s"`
}

type degDoc struct {
	Schema      string   `json:"schema"`
	Cluster     string   `json:"cluster"`
	Ranks       int      `json:"ranks"`
	MsgBytes    int      `json:"msg_bytes"`
	Seed        int64    `json:"seed"`
	Degradation []degRow `json:"degradation"`
}

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
		next := perNode + (r+1-perNode)%perNode
		if next != r {
			found := false
			for _, v := range lists[r] {
				if v == next {
					found = true
					break
				}
			}
			if !found {
				lists[r] = append(lists[r], next)
			}
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
func allOps(g *vgraph.Graph, c topology.Cluster, cnK int) ([]collective.VOp, error) {
	var ops []collective.VOp
	for _, algo := range collective.Algos() {
		op, err := collective.New(algo, g, c, collective.PlanParams{CNGroup: cnK}, nil)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func runDegradation(out io.Writer, path string, c topology.Cluster, msgSize int, seed int64, wall time.Duration) error {
	// A degraded-uplink scenario needs uplinks that carry traffic:
	// re-group single-group clusters so the fabric has a global tier
	// to wound.
	if c.Groups() < 2 && c.Nodes >= 2 {
		c.NodesPerGroup = (c.Nodes + 1) / 2
	}
	scenarios, err := degradationScenarios(c, seed)
	if err != nil {
		return err
	}
	type job struct {
		sc degScenario
		op collective.VOp
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
	cfg := harness.Config{Cluster: c, MsgSize: msgSize, Phantom: true, WallLimit: wall}
	results, err := sweep.Map(context.Background(), len(jobs), func(i int) (harness.DegradationResult, error) {
		res, err := harness.MeasureDegradation(cfg, jobs[i].op, jobs[i].sc.faults)
		if err != nil {
			return res, fmt.Errorf("degradation %s/%s: %w", jobs[i].sc.name, jobs[i].op.Name(), err)
		}
		return res, nil
	})
	if err != nil {
		var agg *sweep.Error
		if errors.As(err, &agg) {
			err = agg.First().Err
		}
		return err
	}

	doc := degDoc{
		Schema:   "nbr-bench/pr7",
		Cluster:  c.String(),
		Ranks:    c.Ranks(),
		MsgBytes: msgSize,
		Seed:     seed,
	}
	for i, res := range results {
		j := jobs[i]
		doc.Degradation = append(doc.Degradation, degRow{
			Algo: j.op.Name(), Scenario: j.sc.name,
			BaselineS: res.Baseline, DegradedS: res.Degraded,
			OverheadS: res.Overhead, Slowdown: res.Slowdown,
			Recovered: res.Recovered, Rounds: res.Rounds, Repair: res.Repair,
			LinkDetections: res.LinkDetections, LinkDetectTimeS: res.LinkDetectTime,
		})
		fmt.Fprintf(out, "degradation %s %s: %s\n", j.sc.name, j.op.Name(), res)
	}

	if path == "" {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d degradation rows)\n", path, len(doc.Degradation))
	return nil
}
