package harness

import (
	"errors"
	"fmt"
	"sync"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
)

// FaultResult quantifies what injected faults cost one self-healing
// allgather: the healthy completion time against the completion time
// with the faults — crashed ranks, degraded resources that slow their
// transfers, down resources that force the repair path — plus the
// detection charges and the repair the run converged to.
type FaultResult struct {
	// Baseline is the healthy RunFTV completion time in seconds.
	Baseline float64
	// Faulted is the completion time with the faults injected: slowed
	// transfers, detection, revoke, agreement, shrink and the repair
	// rounds all included.
	Faulted float64
	// Overhead is Faulted − Baseline; Slowdown is Faulted / Baseline.
	Overhead float64
	Slowdown float64
	// Recovered reports whether the faulted run took the repair path (a
	// kill can land after the collective completed, and degraded-only
	// fabrics typically complete on the first attempt).
	Recovered bool
	// Rounds is the number of shrink-and-re-run rounds.
	Rounds int
	// Survivors counts ranks in the final communicator.
	Survivors int
	// DeadRanks lists the crashed ranks.
	DeadRanks []int
	// Detections and DetectTime aggregate the modelled failure
	// detections charged to virtual clocks; LinkDetections and
	// LinkDetectTime the down-resource ones.
	Detections     int64
	DetectTime     float64
	LinkDetections int64
	LinkDetectTime float64
	// Repair names the algorithm the final round ran.
	Repair string
}

// MeasureFault times op's self-healing allgather twice — healthy, then
// with kills and link faults injected — and reports what the faults
// cost. At least one fault must be given. No victim may be rank 0: rank
// 0 resets the cost model and records the completion time, so it has to
// survive. The link faults must leave the fabric satisfiable for op's
// graph: an unresolvable partition surfaces the repair layer's
// PartitionError as this function's error.
func MeasureFault(cfg Config, op collective.Op, kills []mpirt.Kill, faults []netmodel.LinkFault) (FaultResult, error) {
	g := op.Graph()
	if g.N() != cfg.Cluster.Ranks() {
		return FaultResult{}, fmt.Errorf("harness: graph has %d ranks, cluster %d", g.N(), cfg.Cluster.Ranks())
	}
	if len(kills) == 0 && len(faults) == 0 {
		return FaultResult{}, fmt.Errorf("harness: no fault to measure")
	}
	for _, k := range kills {
		if k.Rank == 0 {
			return FaultResult{}, fmt.Errorf("harness: victim must not be rank 0 (it records the measurement)")
		}
		if k.Rank < 0 || k.Rank >= g.N() {
			return FaultResult{}, fmt.Errorf("harness: victim rank %d outside [0,%d)", k.Rank, g.N())
		}
	}
	if cfg.MsgSize < 1 {
		return FaultResult{}, fmt.Errorf("harness: message size %d must be positive", cfg.MsgSize)
	}

	out := FaultResult{}
	base, _, _, err := runFTVOnce(cfg, op, nil, nil)
	if err != nil {
		return out, fmt.Errorf("harness: healthy run: %w", err)
	}
	out.Baseline = base

	faulted, res, rep, err := runFTVOnce(cfg, op, kills, faults)
	if err != nil {
		return out, fmt.Errorf("harness: faulted run: %w", err)
	}
	out.Faulted = faulted
	out.Overhead = faulted - base
	if base > 0 {
		out.Slowdown = faulted / base
	}
	out.DeadRanks = rep.DeadRanks
	out.Detections, out.DetectTime = rep.Detections, rep.DetectTime
	out.LinkDetections, out.LinkDetectTime = rep.LinkDetections, rep.LinkDetectTime
	if res != nil {
		out.Recovered = res.Recovered
		out.Rounds = res.Rounds
		out.Repair = res.Repair
		if res.Comm != nil {
			out.Survivors = res.Comm.Size()
		} else {
			out.Survivors = g.N()
		}
	}
	return out, nil
}

// runFTVOnce executes one timed RunFTV over the whole communicator with
// the given kills and link faults and returns rank 0's completion time
// and recovery outcome. A deterministic repair-layer verdict (the
// identical PartitionError every rank returns) is propagated as the
// run's error; any other per-rank failure aborts.
func runFTVOnce(cfg Config, op collective.Op, kills []mpirt.Kill, faults []netmodel.LinkFault) (float64, *collective.FTResult, *mpirt.Report, error) {
	g := op.Graph()
	counts := make([]int, g.N())
	for i := range counts {
		counts[i] = cfg.MsgSize
	}
	var t float64
	var res *collective.FTResult
	var verdict error
	var mu sync.Mutex
	// Buffers are cut per rank from one slab (see rankBuffers) so the
	// timed region starts at SyncResetTime with no allocation noise.
	sbufs, rbufs, slab := rankBuffers(g, cfg.MsgSize, cfg.Phantom)
	rc := cfg.runtime()
	rc.Kills, rc.LinkFaults = kills, faults
	rep, err := mpirt.Run(rc, func(p *mpirt.Proc) {
		r := p.Rank()
		p.SyncResetTime()
		fr, ferr := collective.RunFTV(p, op, sbufs[r], counts, rbufs[r])
		if ferr != nil {
			var pe *mpirt.PartitionError
			if errors.As(ferr, &pe) {
				mu.Lock()
				verdict = ferr
				mu.Unlock()
				return
			}
			panic(fmt.Sprintf("harness: rank %d RunFTV: %v", r, ferr))
		}
		ct := p.CollectiveTime()
		if r == 0 {
			mu.Lock()
			t = ct
			res = fr
			mu.Unlock()
		}
	})
	if err != nil {
		return 0, nil, nil, err
	}
	mpirt.PutSlab(slab)
	if verdict != nil {
		return 0, nil, nil, verdict
	}
	return t, res, rep, nil
}
