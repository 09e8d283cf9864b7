package collective

import (
	"sync/atomic"

	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Plan-cache wiring: when a cache is installed, the plan-build entry
// points (NewDistanceHalving, NewCommonNeighborAvoiding, the leader
// constructors, and the rebuildFT repair path) consult it before
// negotiating, keyed by content fingerprints of their inputs. The
// cached artifact is always a *Plan, costed at Plan.Bytes(); plans are
// immutable, so one instance serves any number of ops and goroutines.
//
// All in-engine consultation goes through GetOrBuildLocal — the
// mutex-only path — because rebuildFT runs inside mpirt rank bodies,
// where a channel wait (the singleflight path) would block the event
// engine's host loop. The coalescing GetOrBuild path is reserved for
// host-side service traffic (cmd/nbr-plan, harness.MeasurePlanThroughput).

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

// Algorithm salts keep the Topo component of keys from colliding across
// algorithms that otherwise hash the same inputs.
const (
	saltNaive uint64 = iota + 1
	saltDH
	saltCN
	saltLeader
)

// planKey assembles a content address: topo folds the algorithm's salt
// with whatever shape it reads besides the graph and the avoid set.
func planKey(algo string, g *vgraph.Graph, avoid []bool, param int, topo ...uint64) plancache.Key {
	return plancache.Key{
		Topo:  plancache.HashWords(topo...),
		Graph: g.Fingerprint(),
		Avoid: pattern.AvoidHash(avoid),
		Algo:  algo,
		Param: param,
	}
}

// dhKey is the content address of a Distance Halving plan: it depends
// only on the graph, the stop threshold, the agent policy and the
// avoid set.
func dhKey(g *vgraph.Graph, l int, policy pattern.Policy, avoid []bool) plancache.Key {
	return planKey("dh", g, avoid, l, saltDH, uint64(l), uint64(policy))
}

// cnKey is the content address of a (consecutive-grouping) Common
// Neighbor plan.
func cnKey(g *vgraph.Graph, k int, avoid []bool) plancache.Key {
	return planKey("cn", g, avoid, k, saltCN, uint64(k))
}

// leaderKey is the content address of a leader hierarchy. The placement
// vector is part of the Topo component: two recoveries with different
// survivor placements must never share a plan even when their projected
// graphs fingerprint equally.
func leaderKey(g *vgraph.Graph, c topology.Cluster, k int, place []int, avoid []bool) plancache.Key {
	return planKey("leader", g, avoid, k, saltLeader, c.Fingerprint(), plancache.HashInts(place))
}

// cachedPlan returns the plan under key from the installed plan cache,
// emitting and inserting it on a miss; with no cache installed it just
// emits. Safe inside rank bodies.
func cachedPlan(key plancache.Key, emit func() (*Plan, error)) (*Plan, error) {
	pc := ActivePlanCache()
	if pc == nil {
		return emit()
	}
	v, err := pc.GetOrBuildLocal(key, func() (any, int64, error) {
		pl, err := emit()
		if err != nil {
			return nil, 0, err
		}
		return pl, pl.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Plan), nil
}

// PlanKey returns the content-addressed cache key a planner service
// should use for one plan request: algo is a planverify.Algos name,
// msgBytes quantises into the key's size class, param is the
// algorithm's integer knob (DH stop threshold, CN group size K,
// leaders per node; 0 selects the conformance-suite default). The
// in-process constructors key identically except for the size class,
// which they leave 0 — built patterns are size-oblivious — so a
// service keying by PlanKey shares artifacts across all message sizes
// in a class while keeping per-class hit statistics honest.
func PlanKey(algo string, g *vgraph.Graph, c topology.Cluster, msgBytes, param int, avoid []bool) plancache.Key {
	prm := planParam(algo, param).resolve(c)
	var k plancache.Key
	switch algo {
	case "naive":
		k = planKey("naive", g, avoid, 0, saltNaive)
	case "dh":
		k = dhKey(g, prm.L, prm.Policy, avoid)
	case "cn":
		k = cnKey(g, prm.CNGroup, avoid)
	case "leader":
		k = leaderKey(g, c, prm.Leaders, nil, avoid)
	default:
		k = planKey(algo, g, avoid, param, 0, c.Fingerprint())
	}
	k.Size = plancache.SizeClass(msgBytes)
	return k
}

// planParam places a plan request's one integer knob in the field its
// algorithm reads.
func planParam(algo string, param int) PlanParams {
	switch algo {
	case "dh":
		return PlanParams{L: param}
	case "cn":
		return PlanParams{CNGroup: param}
	case "leader":
		return PlanParams{Leaders: param}
	}
	return PlanParams{}
}

// BuildPlan negotiates and emits one plan from scratch — no cache
// consultation — and returns it (a *Plan) with its resident size in
// bytes: the Builder a planner service pairs with PlanKey, and the
// no-cache baseline of the heavy-traffic benchmark.
func BuildPlan(algo string, g *vgraph.Graph, c topology.Cluster, param int, avoid []bool) (any, int64, error) {
	pl, err := Emit(algo, g, c, planParam(algo, param), avoid)
	if err != nil {
		return nil, 0, err
	}
	return pl, pl.Bytes(), nil
}
