package harness

import (
	"fmt"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/netmodel"
)

// DegradationResult quantifies what a wounded fabric costs one
// self-healing allgather: the healthy completion time against the
// completion time under the injected link faults — degraded resources
// slow their transfers, down resources force the repair path — plus
// the detection charges and the repair the run converged to.
type DegradationResult struct {
	// Baseline is the healthy-fabric RunFTV completion time in seconds.
	Baseline float64
	// Degraded is the completion time on the wounded fabric: slowed
	// transfers, link detections, revoke, agreement and any repair
	// rounds all included.
	Degraded float64
	// Overhead is Degraded − Baseline; Slowdown is Degraded / Baseline.
	Overhead float64
	Slowdown float64
	// Recovered reports whether the wounded run took the repair path
	// (degraded-only fabrics typically complete on the first attempt).
	Recovered bool
	// Rounds is the number of shrink-and-re-run rounds.
	Rounds int
	// Repair names the algorithm the final round ran.
	Repair string
	// LinkDetections and LinkDetectTime aggregate the modelled
	// down-resource detections charged to virtual clocks.
	LinkDetections int64
	LinkDetectTime float64
}

func (r DegradationResult) String() string {
	return fmt.Sprintf("healthy %.3gs, degraded %.3gs (%.2f×; %d rounds, repair %s)",
		r.Baseline, r.Degraded, r.Slowdown, r.Rounds, r.Repair)
}

// MeasureDegradation times op's self-healing allgather twice — on the
// healthy fabric and with the link faults injected — and reports the
// degraded-fabric overhead. The faults must leave the fabric
// satisfiable for op's graph: an unresolvable partition surfaces the
// repair layer's PartitionError as this function's error.
func MeasureDegradation(cfg Config, op collective.VOp, faults []netmodel.LinkFault) (DegradationResult, error) {
	g := op.Graph()
	if g.N() != cfg.Cluster.Ranks() {
		return DegradationResult{}, fmt.Errorf("harness: graph has %d ranks, cluster %d", g.N(), cfg.Cluster.Ranks())
	}
	if len(faults) == 0 {
		return DegradationResult{}, fmt.Errorf("harness: no link faults to measure")
	}
	if cfg.MsgSize < 1 {
		return DegradationResult{}, fmt.Errorf("harness: message size %d must be positive", cfg.MsgSize)
	}

	out := DegradationResult{}
	base, _, _, err := runFTVOnce(cfg, op, nil, nil)
	if err != nil {
		return out, fmt.Errorf("harness: healthy run: %w", err)
	}
	out.Baseline = base

	degraded, res, rep, err := runFTVOnce(cfg, op, nil, faults)
	if err != nil {
		return out, fmt.Errorf("harness: degraded run: %w", err)
	}
	out.Degraded = degraded
	out.Overhead = degraded - base
	if base > 0 {
		out.Slowdown = degraded / base
	}
	out.LinkDetections = rep.LinkDetections
	out.LinkDetectTime = rep.LinkDetectTime
	if res != nil {
		out.Recovered = res.Recovered
		out.Rounds = res.Rounds
		out.Repair = res.Repair
	}
	return out, nil
}
