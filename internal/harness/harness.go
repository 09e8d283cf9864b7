// Package harness runs the paper's experiments: it executes a
// neighborhood allgather implementation on a simulated cluster for a
// number of trials, collects virtual-time latencies and message
// statistics, and provides the per-figure sweep drivers that the
// benchmark targets and command-line tools print.
//
// Collective latency excludes pattern-construction time, matching the
// paper's methodology (creation overhead is a one-time cost measured
// separately in the Fig. 8 experiment).
package harness

import (
	"fmt"
	"math"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Config describes one measurement.
type Config struct {
	// Cluster is the machine shape; the communicator spans all its
	// ranks (the graph must match).
	Cluster topology.Cluster
	// Params are the cost-model constants (zero value → Niagara).
	Params netmodel.Params
	// MsgSize is the per-rank payload in bytes.
	MsgSize int
	// Trials is the number of timed repetitions (default 3); a phantom
	// event-engine run simulates one, which they all replay (simulated).
	Trials int
	// Phantom selects size-only payloads (the default for timing
	// sweeps; correctness is covered by the test suite with real
	// payloads).
	Phantom bool
	// WallLimit bounds host wall-clock per run (default 120 s).
	WallLimit time.Duration
	// Chaos, when non-nil, runs the measurement under the deterministic
	// chaos scheduler (adversarial ordering, fault injection) — the
	// knob for robustness studies: how much do latency spikes, retries
	// and slow ranks cost each algorithm?
	Chaos *mpirt.Chaos
	// Engine selects the mpirt engine of a plain (Chaos == nil)
	// measurement; the zero value is the deterministic event engine
	// every published number comes from. See mpirt.Engine.
	Engine mpirt.Engine
}

// Result summarises one measurement.
type Result struct {
	// Mean, Std, Min, Max are virtual-time latencies in seconds over
	// the trials.
	Mean, Std, Min, Max float64
	// Trials is the number of repetitions measured (see Config.Trials).
	Trials int
	// MsgsPerTrial and BytesPerTrial are the total message and payload
	// counts of one collective invocation.
	MsgsPerTrial  int64
	BytesPerTrial int64
	// OffSocketMsgs is the per-trial count of messages crossing a
	// socket boundary.
	OffSocketMsgs int64
	// MaxRankMsgs is the heaviest per-rank send count across the whole
	// run (load-imbalance indicator).
	MaxRankMsgs int64
	// Wall is the host time the run took, over the trials it simulated.
	Wall time.Duration
	// PlanWall is the host time spent negotiating this algorithm's
	// plan (pattern construction) before the measured run — split out
	// from Wall so one-time negotiation cost is visible separately
	// from execution, and so plan-cache hits show up directly in the
	// figures. Measure itself leaves it zero (it receives a prebuilt
	// op); Compare and MeasureBestCN fill it in.
	PlanWall time.Duration
}

func (r Result) String() string {
	return fmt.Sprintf("%.3gs ±%.2g (%d msgs, %d bytes/trial)", r.Mean, r.Std, r.MsgsPerTrial, r.BytesPerTrial)
}

// Measure runs op under cfg and aggregates per-trial latencies.
func Measure(cfg Config, op collective.Op) (Result, error) {
	g := op.Graph()
	if g.N() != cfg.Cluster.Ranks() {
		return Result{}, fmt.Errorf("harness: graph has %d ranks, cluster %d", g.N(), cfg.Cluster.Ranks())
	}
	trials := cfg.Trials
	if trials == 0 {
		trials = 3
	}
	if trials < 0 {
		return Result{}, fmt.Errorf("harness: %d trials must be positive", trials)
	}
	if cfg.MsgSize < 1 {
		return Result{}, fmt.Errorf("harness: message size %d must be positive", cfg.MsgSize)
	}
	ms, rep, err := runMeasurement(cfg, cfg.runtime(), op, cfg.simulated(trials), nil)
	if err != nil {
		return Result{}, err // an aborted run may leave ranks writing to the slab: no PutSlab
	}
	mpirt.PutSlab(ms.slab)
	return result(ms.times, trials, rep), nil
}

// simulated is how many of trials a measurement under cfg runs: one on
// the event engine, phantom, outside chaos, where trial k replays trial 1
// (mpirt.SyncResetTime); every one otherwise.
func (cfg Config) simulated(trials int) int {
	if eng, err := mpirt.ResolveEngine(cfg.Engine); err == nil && eng == mpirt.EngineEvent && cfg.Phantom && cfg.Chaos == nil {
		return 1
	}
	return trials
}

// result summarises trials repetitions from the times and Report of
// those that ran: one time stands for all, bit-identical to a full run.
func result(times []float64, trials int, rep *mpirt.Report) Result {
	ran := len(times)
	for len(times) < trials {
		times = append(times, times[0])
	}
	res := stats(times)
	res.Trials = trials
	res.MsgsPerTrial = rep.Msgs() / int64(ran)
	res.BytesPerTrial = rep.Bytes() / int64(ran)
	res.OffSocketMsgs = rep.OffSocketMsgs() / int64(ran)
	res.MaxRankMsgs = rep.MaxRankMsgs * int64(trials/ran)
	res.Wall = rep.Wall
	return res
}

// runMeasurement executes trials of op under rc, cfg's runtime: every
// rank is a measureLoop, on every driver. on, when non-nil, is what a
// rank's passes run against in place of its *mpirt.Proc (tests). The
// returned measurement keeps its slab, so a caller may read its receive
// buffers before it puts the slab back.
func runMeasurement(cfg Config, rc mpirt.Config, op collective.Op, trials int, on func(*mpirt.Proc) mpirt.Endpoint) (*measurement, *mpirt.Report, error) {
	ms := &measurement{op: op, msgSize: cfg.MsgSize, times: make([]float64, trials), on: on}
	ms.sbufs, ms.rbufs, ms.slab = rankBuffers(op.Graph(), cfg.MsgSize, cfg.Phantom)
	loops := make([]measureLoop, op.Graph().N())
	rep, err := mpirt.RunSteppers(rc, func(p *mpirt.Proc) mpirt.Stepper {
		l := &loops[p.Rank()]
		l.ms = ms
		return l
	})
	return ms, rep, err
}

// runtime is the mpirt configuration cfg measures under.
func (cfg Config) runtime() mpirt.Config {
	return mpirt.Config{
		Cluster:   cfg.Cluster,
		Params:    cfg.Params,
		Phantom:   cfg.Phantom,
		WallLimit: cfg.WallLimit,
		Chaos:     cfg.Chaos,
		Engine:    cfg.Engine,
	}
}

// measurement is what the ranks of one Measure share.
type measurement struct {
	op           collective.Op
	msgSize      int
	times        []float64 // per trial, written by rank 0
	sbufs, rbufs [][]byte
	slab         *mpirt.Slab // what sbufs and rbufs are cut from; nil in phantom mode
	on           func(*mpirt.Proc) mpirt.Endpoint
}

// measureLoop is one rank's body of Measure — per trial: SyncResetTime,
// one pass of the op, CollectiveTime — as a state machine the event loop
// steps: a suspended rank is trial, phase and the pass's program
// counter, not a stack.
type measureLoop struct {
	ms    *measurement
	trial int
	phase uint8 // of the trial: 0 syncing, 1 in the pass, 2 timing
	pass  collective.Pass
}

// Step implements mpirt.Stepper.
func (l *measureLoop) Step(p *mpirt.Proc) bool {
	ms, r := l.ms, p.Rank()
	ep := mpirt.Endpoint(p)
	if ms.on != nil {
		ep = ms.on(p)
	}
	for ; l.trial < len(ms.times); l.trial++ {
		if l.phase == 0 {
			if !p.SyncResetTimeStep() {
				return false
			}
			ms.op.Begin(&l.pass, ep, ms.sbufs[r], ms.msgSize, ms.rbufs[r])
			l.phase = 1
		}
		if l.phase == 1 {
			if !l.pass.Step(ep) {
				return false
			}
			l.phase = 2
		}
		t, ok := p.CollectiveTimeStep()
		if !ok {
			return false
		}
		if r == 0 {
			ms.times[l.trial] = t
		}
		l.phase = 0
	}
	return true
}

// rankBuffers cuts every rank's send and receive buffer out of one
// pooled slab before the runtime starts, so no trial does buffer work.
// The send buffers get the deterministic byte(r+i) fill; the receive
// buffers keep the slab's stale bytes, since every block a rank receives
// overwrites its slot on every trial and Measure reads none of them.
// Phantom runs get nil buffers and no slab: the runtime moves no payload
// bytes. The caller returns the slab with mpirt.PutSlab once the run is
// over.
func rankBuffers(g *vgraph.Graph, msgSize int, phantom bool) (sbufs, rbufs [][]byte, slab *mpirt.Slab) {
	n := g.N()
	sbufs = make([][]byte, n)
	rbufs = make([][]byte, n)
	if phantom {
		return sbufs, rbufs, nil
	}
	slab = mpirt.GetSlab((n + g.Edges()) * msgSize)
	b := slab.B
	for r := 0; r < n; r++ {
		sbuf := b[:msgSize:msgSize]
		for i := range sbuf {
			sbuf[i] = byte(r + i)
		}
		end := msgSize + g.InDegree(r)*msgSize
		sbufs[r], rbufs[r], b = sbuf, b[msgSize:end:end], b[end:]
	}
	return sbufs, rbufs, slab
}

func stats(xs []float64) Result {
	r := Result{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		r.Mean += x
		if x < r.Min {
			r.Min = x
		}
		if x > r.Max {
			r.Max = x
		}
	}
	r.Mean /= float64(len(xs))
	for _, x := range xs {
		r.Std += (x - r.Mean) * (x - r.Mean)
	}
	if len(xs) > 1 {
		r.Std = math.Sqrt(r.Std / float64(len(xs)-1))
	}
	return r
}

// CNGroupSizes are the K values swept for the Common Neighbor baseline;
// like the paper, comparisons report the best-performing K.
var CNGroupSizes = []int{2, 4, 8}

// MeasureBestCN measures the Common Neighbor algorithm across
// CNGroupSizes (capped at the communicator size) and both grouping
// strategies (consecutive blocks and affinity matching), returning the
// best mean latency with the winning K — mirroring the paper, which
// launched the Common Neighbor algorithm with various K and reported
// the best results.
func MeasureBestCN(cfg Config, g *vgraph.Graph) (Result, int, error) {
	best := Result{Mean: math.Inf(1)}
	bestK := 0
	for _, k := range CNGroupSizes {
		if k > g.N() {
			continue
		}
		t0 := time.Now()
		cons, err := collective.NewCommonNeighbor(g, k)
		consPlan := time.Since(t0)
		if err != nil {
			return Result{}, 0, err
		}
		t0 = time.Now()
		aff, err := collective.NewCommonNeighborAffinity(g, k)
		affPlan := time.Since(t0)
		if err != nil {
			return Result{}, 0, err
		}
		for i, op := range []collective.Op{cons, aff} {
			res, err := Measure(cfg, op)
			if err != nil {
				return Result{}, 0, err
			}
			if i == 0 {
				res.PlanWall = consPlan
			} else {
				res.PlanWall = affPlan
			}
			if res.Mean < best.Mean {
				best, bestK = res, k
			}
		}
	}
	if bestK == 0 {
		return Result{}, 0, fmt.Errorf("harness: no viable CN group size for %d ranks", g.N())
	}
	return best, bestK, nil
}

// Comparison is one workload cell measured under all three algorithms.
type Comparison struct {
	// Label identifies the workload (density, Moore shape, matrix …).
	Label string
	// MsgSize is the payload size in bytes.
	MsgSize int
	// Naive, DH, CN are the measured latencies; CNK is the winning
	// Common Neighbor group size.
	Naive, DH, CN Result
	CNK           int
}

// SpeedupDH returns naive/DH mean latency.
func (c Comparison) SpeedupDH() float64 { return c.Naive.Mean / c.DH.Mean }

// SpeedupCN returns naive/CN mean latency.
func (c Comparison) SpeedupCN() float64 { return c.Naive.Mean / c.CN.Mean }

// Compare measures one graph under the naive, Distance Halving and
// best-K Common Neighbor algorithms.
func Compare(cfg Config, g *vgraph.Graph, label string) (Comparison, error) {
	c := Comparison{Label: label, MsgSize: cfg.MsgSize}
	t0 := time.Now()
	naive := collective.NewNaive(g)
	naivePlan := time.Since(t0)
	var err error
	if c.Naive, err = Measure(cfg, naive); err != nil {
		return c, fmt.Errorf("naive %s: %w", label, err)
	}
	c.Naive.PlanWall = naivePlan
	t0 = time.Now()
	dh, err := collective.NewDistanceHalving(g, cfg.Cluster.L())
	dhPlan := time.Since(t0)
	if err != nil {
		return c, err
	}
	if c.DH, err = Measure(cfg, dh); err != nil {
		return c, fmt.Errorf("distance-halving %s: %w", label, err)
	}
	c.DH.PlanWall = dhPlan
	if c.CN, c.CNK, err = MeasureBestCN(cfg, g); err != nil {
		return c, fmt.Errorf("common-neighbor %s: %w", label, err)
	}
	return c, nil
}
