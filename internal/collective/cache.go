package collective

import (
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// ActivePlanCache returns nil: no process-wide plan cache exists. An op
// holds its plan for reuse, and the one client that re-requests plans
// (cmd/nbr-perf's planner-zipf workload) keeps its own cache, keyed by
// PlanKey and filled by BuildPlan. The stub remains only because
// cmd/nbr-perf, whose files the benchmark freezes, still calls it.
func ActivePlanCache() *plancache.Cache { return nil }

// planRequest is request for a planner service's call: param is the
// algorithm's one integer knob (DH stop threshold, CN group size K,
// leaders per node; 0 selects the conformance-suite default).
func (a *algorithm) planRequest(g *vgraph.Graph, c topology.Cluster, param int, avoid []bool) planReq {
	var prm PlanParams
	if a.knob != nil {
		prm = a.knob(prm, param)
	}
	return request(g, c, prm, avoid)
}

// PlanKey returns the content-addressed cache key a planner service
// should use for one plan request: algo is an Algos name, msgBytes
// quantises into the key's size class, param as in planRequest. Built
// plans are size-oblivious, so a service keying by PlanKey shares
// artifacts across all message sizes in a class while keeping
// per-class hit statistics honest.
func PlanKey(algo string, g *vgraph.Graph, c topology.Cluster, msgBytes, param int, avoid []bool) plancache.Key {
	k := plancache.Key{Graph: g.Fingerprint(), Algo: algo, Size: plancache.SizeClass(msgBytes), Param: param} // an unknown name: BuildPlan refuses it
	if a := row(algo); a != nil {
		q := a.planRequest(g, c, param, avoid)
		k.Topo, k.Param = a.key(q)
		k.Avoid = pattern.AvoidHash(q.avoid)
	}
	return k
}

// BuildPlan negotiates and emits one plan and returns it (a *Plan) with
// its resident size in bytes: the Builder a planner service pairs with
// PlanKey, and the no-cache baseline of the heavy-traffic benchmark.
func BuildPlan(algo string, g *vgraph.Graph, c topology.Cluster, param int, avoid []bool) (any, int64, error) {
	a, err := lookup(algo)
	if err != nil {
		return nil, 0, err
	}
	pl, _, err := a.emit(a.planRequest(g, c, param, avoid))
	if err != nil {
		return nil, 0, err
	}
	return pl, pl.Bytes(), nil
}
