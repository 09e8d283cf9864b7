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
// The façade exports what the programs under examples/ call; the
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
	"nbrallgather/internal/sparse"
	"nbrallgather/internal/spmm"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Cluster describes the simulated machine: groups → nodes → sockets →
// ranks.
type Cluster = topology.Cluster

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

// CSR is a compressed-sparse-row matrix.
type CSR = sparse.CSR

// SpMMKernel is the distributed Z = X·Y kernel of Section VII-C.
type SpMMKernel = spmm.Kernel

// TableIIEntry pairs a Table II stand-in matrix with its provenance.
type TableIIEntry = sparse.NamedMatrix

// Niagara returns a cluster shaped like the paper's testbed: two-socket
// nodes with ranksPerSocket ranks bound to each socket and Dragonfly+
// groups of 12 nodes.
func Niagara(nodes, ranksPerSocket int) Cluster {
	return topology.Niagara(nodes, ranksPerSocket)
}

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

// NewNaive returns the direct point-to-point algorithm (the default
// behaviour of Open MPI and other mainstream MPI implementations).
func NewNaive(g *Graph) Op { return collective.NewNaive(g) }

// NewDistanceHalving builds the paper's communication pattern centrally
// (stop threshold l = ranks per socket) and returns the Distance
// Halving collective.
func NewDistanceHalving(g *Graph, l int) (Op, error) {
	return collective.NewDistanceHalving(g, l)
}

// NewCommonNeighborAffinity returns the Common Neighbor baseline of
// Ghazimirsaeed et al. with affinity-formed groups (hierarchical
// shared-neighbor matching). k must be a power of two.
func NewCommonNeighborAffinity(g *Graph, k int) (Op, error) {
	return collective.NewCommonNeighborAffinity(g, k)
}

// NewNaiveAlltoall returns the direct point-to-point neighborhood
// alltoall.
func NewNaiveAlltoall(g *Graph) AOp { return collective.NewNaiveAlltoall(g) }

// NewDistanceHalvingAlltoall routes neighborhood alltoall segments
// through the Distance Halving pattern's agents — the paper's future
// work: many small distant sends combine into one message per halving
// step with no payload replication.
func NewDistanceHalvingAlltoall(g *Graph, l int) (AOp, error) {
	return collective.NewDistanceHalvingAlltoall(g, l)
}

// Run executes body once per rank against the simulated cluster and
// returns aggregate statistics.
func Run(cfg RunConfig, body func(*Proc)) (*RunReport, error) {
	return mpirt.Run(cfg, body)
}

// Measure runs op under cfg and aggregates per-trial virtual-time
// latencies.
func Measure(cfg MeasureConfig, op Op) (MeasureResult, error) {
	return harness.Measure(cfg, op)
}

// NewSpMMKernel binds a square sparse matrix and dense width k to
// nranks block rows, deriving the neighborhood graph from the block
// sparsity.
func NewSpMMKernel(x *CSR, k, nranks int) (*SpMMKernel, error) {
	return spmm.New(x, k, nranks)
}

// TableIIMatrices generates the synthetic stand-ins for the paper's
// seven SuiteSparse matrices (same order, nonzero budget and structure
// family).
func TableIIMatrices(seed int64) []TableIIEntry { return sparse.TableII(seed) }
