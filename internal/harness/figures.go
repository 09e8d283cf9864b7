package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/sparse"
	"nbrallgather/internal/spmm"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// prefixOnErr converts a sweep.Map result into the sequential loop's
// rows-so-far contract: on failure it returns the rows before the
// first failed cell together with that cell's error — exactly what a
// serial loop that stops at the first error would have returned.
func prefixOnErr[T any](rows []T, err error) ([]T, error) {
	var agg *sweep.Error
	if errors.As(err, &agg) {
		first := agg.First()
		return rows[:first.Index], first.Err
	}
	return rows, err
}

// compareCell is one (graph, label, message size) cell of a figure
// sweep, ready to run independently on the sweep pool.
type compareCell struct {
	g     *vgraph.Graph
	label string
	m     int
}

// runCompareCells measures every cell concurrently and returns the
// rows in cell order.
func runCompareCells(c topology.Cluster, cells []compareCell, trials int, wall time.Duration) ([]Comparison, error) {
	rows, err := sweep.Map(context.Background(), len(cells), func(i int) (Comparison, error) {
		cfg := Config{Cluster: c, MsgSize: cells[i].m, Trials: trials, Phantom: true, WallLimit: wall}
		return Compare(cfg, cells[i].g, cells[i].label)
	})
	return prefixOnErr(rows, err)
}

// PaperDensities are the Erdős–Rényi densities of Figs. 4 and 5.
var PaperDensities = []float64{0.05, 0.1, 0.3, 0.5, 0.7}

// MsgSizes returns the power-of-four message ladder from lo to hi bytes
// inclusive (the paper sweeps 8 B – 4 MB).
func MsgSizes(lo, hi int) []int {
	var out []int
	for m := lo; m <= hi; m *= 4 {
		out = append(out, m)
	}
	return out
}

// RandomSparseSweep runs the Fig. 4/5 experiment: for every density and
// message size, compare the three algorithms on an Erdős–Rényi graph
// over the given cluster. One graph per density (fixed seed), as in the
// paper's per-job topology.
func RandomSparseSweep(c topology.Cluster, deltas []float64, sizes []int, trials int, seed int64, wall time.Duration) ([]Comparison, error) {
	var cells []compareCell
	for _, d := range deltas {
		g, err := vgraph.ErdosRenyi(c.Ranks(), d, seed+int64(d*1000))
		if err != nil {
			return nil, err
		}
		for _, m := range sizes {
			cells = append(cells, compareCell{g, fmt.Sprintf("δ=%.2f", d), m})
		}
	}
	return runCompareCells(c, cells, trials, wall)
}

// MooreShape is one Moore-neighborhood configuration of Fig. 6.
type MooreShape struct {
	R, D int
}

func (s MooreShape) String() string { return fmt.Sprintf("r=%d,d=%d", s.R, s.D) }

// PaperMooreShapes are the Fig. 6 neighborhood configurations.
var PaperMooreShapes = []MooreShape{{1, 2}, {2, 2}, {3, 2}, {1, 3}, {2, 3}}

// PaperMooreSizes are Fig. 6's small/medium/large message sizes.
var PaperMooreSizes = []int{4 << 10, 256 << 10, 4 << 20}

// MooreSweep runs the Fig. 6 experiment over the given shapes and
// message sizes.
func MooreSweep(c topology.Cluster, shapes []MooreShape, sizes []int, trials int, wall time.Duration) ([]Comparison, error) {
	// Graph construction is cheap and sequential; a shape whose grid
	// doesn't fit still yields the completed cells of earlier shapes,
	// as the serial loop did.
	var cells []compareCell
	var buildErr error
	for _, s := range shapes {
		dims, err := vgraph.MooreDims(c.Ranks(), s.D)
		if err != nil {
			buildErr = err
			break
		}
		g, err := vgraph.Moore(dims, s.R)
		if err != nil {
			buildErr = err
			break
		}
		for _, m := range sizes {
			cells = append(cells, compareCell{g, s.String(), m})
		}
	}
	rows, err := runCompareCells(c, cells, trials, wall)
	if err != nil {
		return rows, err
	}
	return rows, buildErr
}

// SpMMResult is one Fig. 7 cell: kernel time (communication + local
// multiply) per algorithm for one matrix.
type SpMMResult struct {
	Matrix    string
	Structure string
	Rows, NNZ int
	GraphDeg  float64
	MsgBytes  int
	Naive     Result
	DH        Result
	CN        Result
	CNK       int
}

// SpeedupDH returns naive/DH mean kernel time.
func (r SpMMResult) SpeedupDH() float64 { return r.Naive.Mean / r.DH.Mean }

// SpeedupCN returns naive/CN mean kernel time.
func (r SpMMResult) SpeedupCN() float64 { return r.Naive.Mean / r.CN.Mean }

// measureSpMM times one algorithm over the kernel (phantom payloads;
// numeric correctness is covered by the spmm tests).
func measureSpMM(c topology.Cluster, k *spmm.Kernel, op collective.Op, trials int, wall time.Duration) (Result, error) {
	cfg := Config{Cluster: c, Phantom: true, WallLimit: wall}
	times := make([]float64, cfg.simulated(trials))
	rep, err := mpirt.Run(cfg.runtime(), func(p *mpirt.Proc) {
		for tr := range times {
			p.SyncResetTime()
			k.RunRank(p, op)
			t := p.CollectiveTime()
			if p.Rank() == 0 {
				times[tr] = t
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return result(times, trials, rep), nil
}

// SpMMSweepMatrices runs the Fig. 7 experiment over a matrix set: the
// Table II matrices (sparse.TableII) or real MatrixMarket files.
func SpMMSweepMatrices(c topology.Cluster, mats []sparse.NamedMatrix, denseWidth, trials int, wall time.Duration) ([]SpMMResult, error) {
	rows, err := sweep.Map(context.Background(), len(mats), func(i int) (SpMMResult, error) {
		return spmmCell(c, mats[i], denseWidth, trials, wall)
	})
	return prefixOnErr(rows, err)
}

// spmmCell measures one Fig. 7 matrix: the per-matrix body of the
// sequential sweep, extracted so matrices run concurrently.
func spmmCell(c topology.Cluster, nm sparse.NamedMatrix, denseWidth, trials int, wall time.Duration) (SpMMResult, error) {
	kr, err := spmm.New(nm.M, denseWidth, c.Ranks())
	if err != nil {
		return SpMMResult{}, err
	}
	g := kr.Graph()
	row := SpMMResult{
		Matrix: nm.Name, Structure: nm.Structure,
		Rows: nm.M.Rows, NNZ: nm.M.NNZ(),
		GraphDeg: g.AvgOutDegree(), MsgBytes: kr.MsgBytes(),
	}
	naive := collective.NewNaive(g)
	if row.Naive, err = measureSpMM(c, kr, naive, trials, wall); err != nil {
		return SpMMResult{}, fmt.Errorf("spmm %s naive: %w", nm.Name, err)
	}
	dh, err := collective.NewDistanceHalving(g, c.L())
	if err != nil {
		return SpMMResult{}, err
	}
	if row.DH, err = measureSpMM(c, kr, dh, trials, wall); err != nil {
		return SpMMResult{}, fmt.Errorf("spmm %s dh: %w", nm.Name, err)
	}
	best := Result{Mean: 1e300}
	for _, k := range CNGroupSizes {
		if k > g.N() {
			continue
		}
		cn, err := collective.NewCommonNeighborAffinity(g, k)
		if err != nil {
			return SpMMResult{}, err
		}
		res, err := measureSpMM(c, kr, cn, trials, wall)
		if err != nil {
			return SpMMResult{}, fmt.Errorf("spmm %s cn(K=%d): %w", nm.Name, k, err)
		}
		if res.Mean < best.Mean {
			best = res
			row.CNK = k
		}
	}
	row.CN = best
	return row, nil
}

// OverheadRow is one Fig. 8 cell: pattern-creation cost at one density.
type OverheadRow struct {
	Delta float64
	// DHTime and CNTime are virtual build times in seconds.
	DHTime, CNTime float64
	// DHMsgs and CNMsgs are total build messages.
	DHMsgs, CNMsgs int64
	// SuccessRate is the DH agent-negotiation success rate.
	SuccessRate float64
}

// Ratio returns DHTime/CNTime (the paper reports 1.2–1.5×).
func (r OverheadRow) Ratio() float64 { return r.DHTime / r.CNTime }

// OverheadSweep runs the Fig. 8 experiment: distributed
// pattern-creation cost of Distance Halving versus the Common Neighbor
// algorithm (K = 4, representative) across densities.
func OverheadSweep(c topology.Cluster, deltas []float64, seed int64, wall time.Duration) ([]OverheadRow, error) {
	rows, err := sweep.Map(context.Background(), len(deltas), func(i int) (OverheadRow, error) {
		return overheadCell(c, deltas[i], seed, wall)
	})
	return prefixOnErr(rows, err)
}

// overheadCell builds both patterns for one density and reports their
// distributed construction cost.
func overheadCell(c topology.Cluster, d float64, seed int64, wall time.Duration) (OverheadRow, error) {
	g, err := vgraph.ErdosRenyi(c.Ranks(), d, seed+int64(d*1000))
	if err != nil {
		return OverheadRow{}, err
	}
	dhPat, dhRep, err := pattern.BuildDistributed(mpirt.Config{Cluster: c, Phantom: true, WallLimit: wall}, g)
	if err != nil {
		return OverheadRow{}, fmt.Errorf("overhead δ=%v dh: %w", d, err)
	}
	cnPat, err := collective.BuildCNAffinity(g, 4)
	if err != nil {
		return OverheadRow{}, err
	}
	cnRep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true, WallLimit: wall}, func(p *mpirt.Proc) {
		collective.BuildCNAffinityRank(p, cnPat)
	})
	if err != nil {
		return OverheadRow{}, fmt.Errorf("overhead δ=%v cn: %w", d, err)
	}
	return OverheadRow{
		Delta:       d,
		DHTime:      dhRep.Time,
		CNTime:      cnRep.Time,
		DHMsgs:      dhRep.Msgs(),
		CNMsgs:      cnRep.Msgs(),
		SuccessRate: dhPat.Stats.SuccessRate(),
	}, nil
}
