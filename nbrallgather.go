// Package nbrallgather is a pure-Go reproduction of "A Topology- and
// Load-Aware Design for Neighborhood Allgather" (Sharifian, Sojoodi,
// Afsahi — IEEE CLUSTER 2024): the Distance Halving neighborhood
// allgather algorithm, the naive and Common Neighbor baselines, the
// Section V performance model, and the simulated cluster substrate
// (MPI-like runtime + Hockney-style topology-aware cost model) the
// experiments run on.
//
// # Quick start
//
//	cluster := nbrallgather.Niagara(4, 6)                   // 48 ranks
//	graph, _ := nbrallgather.ErdosRenyi(cluster.Ranks(), 0.3, 1)
//	dh, _ := nbrallgather.NewDistanceHalving(graph, cluster.L())
//	res, _ := nbrallgather.Measure(nbrallgather.MeasureConfig{
//		Cluster: cluster, MsgSize: 1024, Phantom: true,
//	}, dh)
//	fmt.Println(res.Mean)
//
// The façade re-exports the library's building blocks; the
// sub-packages under internal/ hold the implementations:
//
//   - internal/topology, internal/netmodel — cluster shape and cost model
//   - internal/mpirt — the MPI-like runtime: one blocking core under
//     the event, chaos and threaded drivers
//   - internal/vgraph — virtual topologies and workload generators
//   - internal/pattern — Distance Halving pattern builders (Algorithms 1–3)
//   - internal/collective — one algorithm table over one plan IR and one
//     interpreter: naive, Common Neighbor, Distance Halving (Algorithm 4)
//     and leader-based allgather(v); naive and Distance Halving alltoall(v)
//   - internal/perfmodel — the Section V analytical model
//   - internal/sparse, internal/spmm — the SpMM kernel workload
//   - internal/harness — experiment drivers for every figure
package nbrallgather

import (
	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/sparse"
	"nbrallgather/internal/spmm"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Cluster describes the simulated machine: groups → nodes → sockets →
// ranks. See Niagara and Flat for presets.
type Cluster = topology.Cluster

// Distance classifies how far apart two ranks are placed.
type Distance = topology.Distance

// NetParams are the communication cost-model constants.
type NetParams = netmodel.Params

// Graph is a directed virtual topology (u→v means v is an outgoing
// neighbor of u).
type Graph = vgraph.Graph

// Op is a neighborhood allgather implementation bound to a graph: Run
// for uniform sizes, RunV for per-rank ones.
type Op = collective.Op

// AOp is a neighborhood alltoall implementation (distinct payload per
// outgoing neighbor) — the paper's named future-work extension: RunA
// for uniform sizes, RunAV for per-edge ones.
type AOp = collective.AOp

// Pattern is a Distance Halving communication pattern.
type Pattern = pattern.Pattern

// PatternStats aggregates pattern-quality measures (agent success
// rate, buffer growth).
type PatternStats = pattern.Stats

// Proc is the per-rank handle inside a runtime execution.
type Proc = mpirt.Proc

// RunConfig configures a raw runtime execution.
type RunConfig = mpirt.Config

// RunReport summarises a runtime execution (virtual time, message and
// byte counts by distance class).
type RunReport = mpirt.Report

// MeasureConfig configures a latency measurement.
type MeasureConfig = harness.Config

// MeasureResult is an aggregated latency measurement.
type MeasureResult = harness.Result

// Comparison holds one workload measured under all three algorithms.
type Comparison = harness.Comparison

// ModelParams parameterise the Section V analytical performance model.
type ModelParams = perfmodel.Params

// CSR is a compressed-sparse-row matrix.
type CSR = sparse.CSR

// SpMMKernel is the distributed Z = X·Y kernel of Section VII-C.
type SpMMKernel = spmm.Kernel

// Niagara returns a cluster shaped like the paper's testbed: two-socket
// nodes with ranksPerSocket ranks bound to each socket and Dragonfly+
// groups of 12 nodes.
func Niagara(nodes, ranksPerSocket int) Cluster {
	return topology.Niagara(nodes, ranksPerSocket)
}

// Flat returns a single-group cluster with uniform inter-node distance
// (the flat-network ablation target).
func Flat(nodes, socketsPerNode, ranksPerSocket int) Cluster {
	return topology.Flat(nodes, socketsPerNode, ranksPerSocket)
}

// NiagaraNetParams returns cost-model constants calibrated to resemble
// the paper's EDR InfiniBand / Dragonfly+ testbed.
func NiagaraNetParams() NetParams { return netmodel.NiagaraParams() }

// UniformNetParams returns a topology-blind parameter set for the
// flat-network ablation.
func UniformNetParams() NetParams { return netmodel.UniformParams() }

// ErdosRenyi generates a directed G(n, δ) random sparse graph; each
// ordered pair is an edge independently with probability delta.
func ErdosRenyi(n int, delta float64, seed int64) (*Graph, error) {
	return vgraph.ErdosRenyi(n, delta, seed)
}

// Moore generates a Moore neighborhood of radius r on a periodic grid
// with the given extents: every rank is adjacent to all ranks within
// Chebyshev distance r, i.e. (2r+1)^d − 1 neighbors.
func Moore(dims []int, r int) (*Graph, error) { return vgraph.Moore(dims, r) }

// MooreDims factors n ranks into d near-equal grid extents.
func MooreDims(n, d int) ([]int, error) { return vgraph.MooreDims(n, d) }

// Cartesian generates the von Neumann neighborhood of an MPI_Cart
// communicator: ±1 along every grid dimension, optionally periodic.
func Cartesian(dims []int, periodic bool) (*Graph, error) {
	return vgraph.Cartesian(dims, periodic)
}

// GraphFromOutLists builds a virtual topology from per-rank outgoing
// neighbor lists (the MPI_Dist_graph_create_adjacent equivalent). It
// takes ownership of out, sorting and deduplicating each list in place.
func GraphFromOutLists(n int, out [][]int) (*Graph, error) {
	return vgraph.FromOutLists(n, out)
}

// NewNaive returns the direct point-to-point algorithm (the default
// behaviour of Open MPI and other mainstream MPI implementations).
func NewNaive(g *Graph) Op { return collective.NewNaive(g) }

// NewDistanceHalving builds the paper's communication pattern centrally
// (stop threshold l = ranks per socket) and returns the Distance
// Halving collective.
func NewDistanceHalving(g *Graph, l int) (Op, error) {
	return collective.NewDistanceHalving(g, l)
}

// NewCommonNeighbor returns the message-combining baseline of
// Ghazimirsaeed et al. with consecutive groups of size k.
func NewCommonNeighbor(g *Graph, k int) (Op, error) {
	return collective.NewCommonNeighbor(g, k)
}

// NewCommonNeighborAffinity returns the Common Neighbor baseline with
// affinity-formed groups (hierarchical shared-neighbor matching,
// faithful to the original collaborative mechanism). k must be a power
// of two.
func NewCommonNeighborAffinity(g *Graph, k int) (Op, error) {
	return collective.NewCommonNeighborAffinity(g, k)
}

// NewLeaderBased returns the hierarchical baseline in the style of the
// related work's large-message designs: per-node leaders gather,
// exchange one combined message per communicating node pair, and
// distribute; intra-node edges go direct.
func NewLeaderBased(g *Graph, c Cluster) (Op, error) {
	return collective.NewLeaderBased(g, c)
}

// NewLeaderBasedK is NewLeaderBased with up to k load-balanced leaders
// per node (the published design's multi-leader mechanism).
func NewLeaderBasedK(g *Graph, c Cluster, k int) (Op, error) {
	return collective.NewLeaderBasedK(g, c, k)
}

// NewNaiveAlltoall returns the direct point-to-point neighborhood
// alltoall: like every collective here, a plan the one interpreter runs
// and the static verifier proves.
func NewNaiveAlltoall(g *Graph) AOp { return collective.NewNaiveAlltoall(g) }

// NewDistanceHalvingAlltoall routes neighborhood alltoall segments
// through the Distance Halving pattern's agents — the paper's future
// work: many small distant sends combine into one message per halving
// step with no payload replication. The pattern's per-edge
// responsibility movement is replayed once, when the plan is emitted.
func NewDistanceHalvingAlltoall(g *Graph, l int) (AOp, error) {
	return collective.NewDistanceHalvingAlltoall(g, l)
}

// CountFunc gives the alltoallv segment size for an edge src → dst.
type CountFunc = collective.CountFunc

// Persistent is an MPI-4-style persistent collective handle
// (Init/Start/Wait).
type Persistent = collective.Persistent

// AllgatherInit binds a persistent neighborhood allgather for the
// calling rank; Start/Wait rounds reuse the bound buffers.
func AllgatherInit(op Op, p *Proc, sbuf []byte, m int, rbuf []byte) (*Persistent, error) {
	return collective.AllgatherInit(op, p, sbuf, m, rbuf)
}

// BuildPattern constructs a Distance Halving pattern with the
// deterministic central builder.
func BuildPattern(g *Graph, l int) (*Pattern, error) { return pattern.Build(g, l) }

// AgentPolicy selects how the pattern builder chooses agents.
type AgentPolicy = pattern.Policy

// Agent selection policies: the paper's load-aware maximisation of
// shared outgoing neighbors, and a first-fit ablation baseline.
const (
	PolicyLoadAware = pattern.PolicyLoadAware
	PolicyFirstFit  = pattern.PolicyFirstFit
)

// BuildPatternWithPolicy constructs a pattern under an explicit agent
// selection policy (the load-aware vs first-fit ablation).
func BuildPatternWithPolicy(g *Graph, l int, p AgentPolicy) (*Pattern, error) {
	return pattern.BuildAvoiding(g, l, p, nil)
}

// NewDistanceHalvingFromPattern binds the Distance Halving collective
// to a prebuilt pattern.
func NewDistanceHalvingFromPattern(p *Pattern) Op {
	return collective.NewDistanceHalvingFromPattern(p)
}

// BuildPatternDistributed constructs the pattern by running the
// paper's REQ/ACCEPT/DROP/EXIT negotiation protocol (Algorithms 1–3)
// over the runtime, returning the pattern and the build-cost report
// (the Fig. 8 measurement).
func BuildPatternDistributed(cfg RunConfig, g *Graph) (*Pattern, *RunReport, error) {
	return pattern.BuildDistributed(cfg, g)
}

// Run executes body on one goroutine per rank against the simulated
// cluster and returns aggregate statistics.
func Run(cfg RunConfig, body func(*Proc)) (*RunReport, error) {
	return mpirt.Run(cfg, body)
}

// Measure runs op under cfg and aggregates per-trial virtual-time
// latencies.
func Measure(cfg MeasureConfig, op Op) (MeasureResult, error) {
	return harness.Measure(cfg, op)
}

// Compare measures one graph under the naive, Distance Halving and
// best-K Common Neighbor algorithms.
func Compare(cfg MeasureConfig, g *Graph, label string) (Comparison, error) {
	return harness.Compare(cfg, g, label)
}

// NiagaraModel instantiates the Section V analytical model for a
// communicator of n ranks with L ranks per socket.
func NiagaraModel(n, l int) ModelParams { return perfmodel.NiagaraModel(n, l) }

// NewSpMMKernel binds a square sparse matrix and dense width k to
// nranks block rows, deriving the neighborhood graph from the block
// sparsity.
func NewSpMMKernel(x *CSR, k, nranks int) (*SpMMKernel, error) {
	return spmm.New(x, k, nranks)
}

// TableIIEntry pairs a Table II stand-in matrix with its provenance.
type TableIIEntry = sparse.NamedMatrix

// TableIIMatrices generates the synthetic stand-ins for the paper's
// seven SuiteSparse matrices (same order, nonzero budget and structure
// family).
func TableIIMatrices(seed int64) []TableIIEntry { return sparse.TableII(seed) }
