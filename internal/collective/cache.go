package collective

import (
	"sync/atomic"

	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Plan-cache wiring: when a cache is installed, algorithm.bind — every
// constructor that negotiates, New, and the repair path — consults it
// before negotiating, keyed by content fingerprints of its inputs. The
// cached artifact is always a *Plan, costed at Plan.Bytes(); plans are
// immutable, so one instance serves any number of ops and goroutines.
//
// All in-engine consultation goes through GetOrBuildLocal — the
// mutex-only path — because a repair runs inside mpirt rank bodies,
// where a channel wait (the singleflight path) would block the event
// engine's host loop. The coalescing GetOrBuild path is reserved for
// host-side service traffic (cmd/nbr-perf's planner-zipf workload).

// planCache is the installed cache; nil (the default) means every
// constructor builds fresh, exactly the pre-cache behavior.
var planCache atomic.Pointer[plancache.Cache]

// UsePlanCache installs c as the process-wide plan cache consulted by
// the plan-build entry points (nil uninstalls). It returns the
// previously installed cache so tests and tools can restore it.
func UsePlanCache(c *plancache.Cache) *plancache.Cache {
	return planCache.Swap(c)
}

// ActivePlanCache returns the installed plan cache, or nil.
func ActivePlanCache() *plancache.Cache { return planCache.Load() }

// cacheKey is the content address of the row's plan for q.
func (a *algorithm) cacheKey(q planReq) plancache.Key {
	topo, param := a.key(q)
	return plancache.Key{Topo: topo, Graph: q.g.Fingerprint(), Avoid: pattern.AvoidHash(q.avoid), Algo: a.name, Param: param}
}

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
// quantises into the key's size class, param as in planRequest. The
// in-process constructors key identically except for the size class,
// which they leave 0 — built patterns are size-oblivious — so a service
// keying by PlanKey shares artifacts across all message sizes in a
// class while keeping per-class hit statistics honest.
func PlanKey(algo string, g *vgraph.Graph, c topology.Cluster, msgBytes, param int, avoid []bool) plancache.Key {
	k := plancache.Key{Graph: g.Fingerprint(), Algo: algo, Param: param} // an unknown name: BuildPlan refuses it
	if a := row(algo); a != nil {
		k = a.cacheKey(a.planRequest(g, c, param, avoid))
	}
	k.Size = plancache.SizeClass(msgBytes)
	return k
}

// BuildPlan negotiates and emits one plan from scratch — no cache
// consultation — and returns it (a *Plan) with its resident size in
// bytes: the Builder a planner service pairs with PlanKey, and the
// no-cache baseline of the heavy-traffic benchmark.
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
