package harness

import (
	"errors"
	"fmt"
	"sync"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
)

// RecoveryResult quantifies the cost of surviving one injected
// fail-stop crash: the fault-free completion time of the self-healing
// collective against the completion time with the crash, plus the
// detection and agreement costs that virtual time absorbed.
type RecoveryResult struct {
	// Baseline is the fault-free RunFTV completion time in seconds.
	Baseline float64
	// Failed is the completion time with the injected kill: detection,
	// revoke, agreement, shrink and the survivor re-run all included.
	Failed float64
	// Overhead is Failed − Baseline.
	Overhead float64
	// Recovered reports whether the failed run actually took the
	// recovery path (a kill can land after the collective completed).
	Recovered bool
	// Rounds is the number of shrink-and-re-run rounds.
	Rounds int
	// Survivors counts ranks in the final communicator.
	Survivors int
	// DeadRanks lists the crashed ranks.
	DeadRanks []int
	// Detections and DetectTime aggregate the modelled failure
	// detections charged to virtual clocks.
	Detections int64
	DetectTime float64
	// Repair names the algorithm the final round ran.
	Repair string
}

func (r RecoveryResult) String() string {
	return fmt.Sprintf("baseline %.3gs, with failure %.3gs (+%.3gs; %d rounds, %d survivors, repair %s)",
		r.Baseline, r.Failed, r.Overhead, r.Rounds, r.Survivors, r.Repair)
}

// MeasureRecovery times op's self-healing allgather twice — fault-free
// and with kill injected — and reports the recovery overhead. The
// victim must not be rank 0: rank 0 resets the cost model and records
// the completion time, so it has to survive.
func MeasureRecovery(cfg Config, op collective.VOp, kill mpirt.Kill) (RecoveryResult, error) {
	g := op.Graph()
	if g.N() != cfg.Cluster.Ranks() {
		return RecoveryResult{}, fmt.Errorf("harness: graph has %d ranks, cluster %d", g.N(), cfg.Cluster.Ranks())
	}
	if kill.Rank == 0 {
		return RecoveryResult{}, fmt.Errorf("harness: recovery victim must not be rank 0 (it records the measurement)")
	}
	if kill.Rank < 0 || kill.Rank >= g.N() {
		return RecoveryResult{}, fmt.Errorf("harness: victim rank %d outside [0,%d)", kill.Rank, g.N())
	}
	if cfg.MsgSize < 1 {
		return RecoveryResult{}, fmt.Errorf("harness: message size %d must be positive", cfg.MsgSize)
	}

	out := RecoveryResult{}
	base, _, _, err := runFTVOnce(cfg, op, nil, nil)
	if err != nil {
		return out, fmt.Errorf("harness: fault-free run: %w", err)
	}
	out.Baseline = base

	failed, res, rep, err := runFTVOnce(cfg, op, []mpirt.Kill{kill}, nil)
	if err != nil {
		return out, fmt.Errorf("harness: failed run: %w", err)
	}
	out.Failed = failed
	out.Overhead = failed - base
	out.DeadRanks = rep.DeadRanks
	out.Detections = rep.Detections
	out.DetectTime = rep.DetectTime
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
func runFTVOnce(cfg Config, op collective.VOp, kills []mpirt.Kill, faults []netmodel.LinkFault) (float64, *collective.FTResult, *mpirt.Report, error) {
	g := op.Graph()
	counts := make([]int, g.N())
	for i := range counts {
		counts[i] = cfg.MsgSize
	}
	var t float64
	var res *collective.FTResult
	var verdict error
	var mu sync.Mutex
	// Buffers are pre-allocated per rank (see rankBuffers) so the timed
	// region starts at SyncResetTime with no allocation noise.
	sbufs, rbufs := rankBuffers(g, cfg.MsgSize, cfg.Phantom)
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
	if verdict != nil {
		return 0, nil, nil, verdict
	}
	return t, res, rep, nil
}
