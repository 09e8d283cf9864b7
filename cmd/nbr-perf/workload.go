package main

import (
	"fmt"

	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// spec sizes one workload. Every workload has the same two parts — a
// simulation cell (generate graphs → build plans → measure naive, DH
// and CN) and a planner service phase (hot and churn requests against a
// plan cache) — because the driver's contract wants every end-to-end
// metric on every workload; the sizes put the weight where the
// workload's name says, and the light part is the cross-check that the
// heavy part's layer stays flat there.
type spec struct {
	name, why string

	// Cell. Rep i runs graph set i % sets; a set holds graphsPerSet
	// graphs whose simulated numbers are summed. Cycling over several
	// sets averages the draw of one seed out of the virtual times
	// without making any rep's work differ in size.
	cluster      topology.Cluster
	sets         int
	graphsPerSet int
	graph        func(i int) (*vgraph.Graph, error) // i in [0, sets*graphsPerSet)
	msg          int
	trials       int
	phantom      bool

	// Planner: hoods ER graphs (plannerRanks ranks, δ=plannerDensity) ×
	// {dh, cn} keys on plannerCluster, Zipf s=1.1 request streams.
	hoods   int
	hot     int // requests per rep against the all-resident cache
	churn   int // requests per rep against the quarter-budget cache
	prewarm int // untimed churn requests before the first rep

	// heavyProbes is where the traced run times the two builders that
	// are not part of the cell and grow fastest with the rank count
	// (pattern.BuildDistributed, collective.NewCommonNeighborAffinity):
	// the workload's own cluster and first graph, except on
	// moore10k-scale, where they take 35 s and 20 s at 10 240 ranks and
	// are probed at 2 560.
	heavyProbes struct {
		cluster topology.Cluster
		graph   func() (*vgraph.Graph, error)
	}

	minReps int // at least this many timed reps, however short -seconds is
	setups  int // set-up is repeated this often; setup_s is the median
}

const (
	cnGroup        = 4 // consecutive Common Neighbor group size K
	plannerMsg     = 1 << 10
	plannerDensity = 0.12
	zipfS          = 1.1

	scaleFull  = "full"
	scaleSmoke = "smoke"
)

// workloadNames is the order BENCHMARK.json lists.
var workloadNames = []string{"rsg540-lat", "rsg216-real", "moore10k-scale", "planner-zipf"}

// plannerRanks is the neighborhood size of planner graphs.
func plannerRanks(scale string) int {
	if scale == scaleSmoke {
		return 16
	}
	return 64
}

// graphSeed spreads one user seed over a workload's graph draws.
func graphSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func erGraphs(n int, delta float64, seed int64) func(int) (*vgraph.Graph, error) {
	return func(i int) (*vgraph.Graph, error) { return vgraph.ErdosRenyi(n, delta, graphSeed(seed, i)) }
}

// newSpec returns the named workload at the given scale. The seed
// feeds only the generators: the ER draws, the Zipf streams (see
// planner.go) and moore10k-scale's node-to-group allocation.
func newSpec(name, scale string, seed int64) (spec, error) {
	smoke := scale == scaleSmoke
	if !smoke && scale != scaleFull {
		return spec{}, fmt.Errorf("unknown scale %q (want %s or %s)", scale, scaleFull, scaleSmoke)
	}
	// The light planner part of the three simulation workloads.
	s := spec{name: name, trials: 3, sets: 4, graphsPerSet: 1, hoods: 128, hot: 300_000, churn: 4_000,
		prewarm: 4_000, minReps: 4, setups: 3}
	if smoke {
		s.sets, s.hoods, s.hot, s.churn, s.prewarm, s.minReps, s.setups = 2, 12, 2_000, 300, 300, 2, 1
	}
	switch name {
	case "rsg540-lat":
		s.why = "paper Fig. 4 cell, 540 ranks, 1 KiB phantom: latency-bound, engine loop and matching dominate"
		s.cluster, s.msg, s.phantom = topology.Niagara(15, 18), 1<<10, true
		if smoke {
			s.cluster = topology.Niagara(2, 6)
		}
		s.graph = erGraphs(s.cluster.Ranks(), 0.3, seed)
	case "rsg216-real":
		s.why = "216 ranks, 8 KiB real payloads checked byte for byte: bandwidth-bound, payload pool and copies dominate"
		s.cluster, s.msg, s.trials = topology.Niagara(6, 18), 8<<10, 4
		if smoke {
			s.cluster, s.msg = topology.Niagara(2, 4), 256
		}
		s.graph = erGraphs(s.cluster.Ranks(), 0.3, seed)
	case "moore10k-scale":
		s.why = "10 240-rank Moore grid, 4 KiB phantom: pattern build and per-rank start-up dominate, DH loses by design"
		s.cluster, s.msg, s.phantom, s.trials, s.sets = topology.Niagara(160, 32), 4<<10, true, 1, 1
		if smoke {
			s.cluster = topology.Niagara(13, 4)
		}
		// The Moore grid is fixed, so the seed draws what the batch
		// scheduler would: which Dragonfly+ group each node lands in.
		s.cluster = s.cluster.Scattered(seed)
		s.graph = func(int) (*vgraph.Graph, error) { return mooreGraph(s.cluster.Ranks()) }
		s.minReps = 3
		if !smoke {
			s.heavyProbes.cluster = topology.Niagara(40, 32).Scattered(seed)
			s.heavyProbes.graph = func() (*vgraph.Graph, error) { return mooreGraph(2560) }
		}
	case "planner-zipf":
		s.why = "planner service: Zipf requests over 2 000 plan keys, hit path then build+insert+evict beside reads"
		// The cell executes a sample of the plans the planner serves:
		// many tiny simulations, where start-up outweighs messages.
		s.msg, s.phantom, s.sets, s.graphsPerSet = plannerMsg, true, 1, 32
		s.hoods, s.hot, s.churn, s.prewarm = 1_000, 400_000, 15_000, 20_000
		if smoke {
			s.graphsPerSet, s.hoods, s.hot, s.churn, s.prewarm = 3, 24, 4_000, 600, 600
		}
		s.cluster = plannerCluster(scale)
		s.graph = plannerGraphs(scale, seed)
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if s.heavyProbes.graph == nil {
		s.heavyProbes.cluster = s.cluster
		s.heavyProbes.graph = func() (*vgraph.Graph, error) { return s.graph(0) }
	}
	return s, nil
}

func mooreGraph(n int) (*vgraph.Graph, error) {
	dims, err := vgraph.MooreDims(n, 2)
	if err != nil {
		return nil, err
	}
	return vgraph.Moore(dims, 1)
}

func plannerCluster(scale string) topology.Cluster {
	return topology.ForRanks(plannerRanks(scale), 4)
}

// plannerGraphs draws the planner population; planner-zipf's cell
// executes the first of them.
func plannerGraphs(scale string, seed int64) func(int) (*vgraph.Graph, error) {
	return erGraphs(plannerRanks(scale), plannerDensity, seed)
}
