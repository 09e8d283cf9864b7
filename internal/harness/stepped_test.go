package harness

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/conformance"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/trace"
	"nbrallgather/internal/vgraph"
)

// unhinted is a rank's endpoint with every slot hint stripped: the same
// collective, every message matched through the mailbox's hashed lists.
type unhinted struct{ *mpirt.Proc }

func (u unhinted) SendSnapshot(dst, tag, size int, s mpirt.Snapshot, meta any, _ int) {
	u.Proc.SendSnapshot(dst, tag, size, s, meta, -1)
}

func (u unhinted) RecvStep(src, tag, _ int) (mpirt.Msg, bool) { return u.Proc.RecvStep(src, tag, -1) }

func stripHints(p *mpirt.Proc) mpirt.Endpoint { return unhinted{p} }

// coroutineMeasurement is the rank body Measure had before its ranks
// were stepped — SyncResetTime, op.Run, CollectiveTime per trial, on a
// coroutine per rank, no slot hints — kept as the reference measureLoop
// is compared to.
func coroutineMeasurement(cfg Config, rc mpirt.Config, op collective.Op, trials int) (*measurement, *mpirt.Report, error) {
	ms := &measurement{op: op, msgSize: cfg.MsgSize, times: make([]float64, trials)}
	ms.sbufs, ms.rbufs, ms.slab = rankBuffers(op.Graph(), cfg.MsgSize, cfg.Phantom)
	rep, err := mpirt.Run(rc, func(p *mpirt.Proc) {
		r := p.Rank()
		for tr := range ms.times {
			p.SyncResetTime()
			op.Run(unhinted{p}, ms.sbufs[r], cfg.MsgSize, ms.rbufs[r])
			if t := p.CollectiveTime(); r == 0 {
				ms.times[tr] = t
			}
		}
	})
	return ms, rep, err
}

// moore10k is the moore10k-scale cell: a 128×80 Moore grid on 160
// 64-rank nodes, 4 KiB phantom, one trial.
func moore10k(tb testing.TB) (Config, *vgraph.Graph) {
	tb.Helper()
	g, err := vgraph.Moore([]int{128, 80}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Cluster: topology.Niagara(160, 32), MsgSize: 4 << 10, Trials: 1, Phantom: true, Engine: mpirt.EngineEvent}, g
}

// TestSteppedEqualsCoroutine is the equivalence proof of the stepped
// Measure: for every algorithm of the table, on the nine conformance
// shapes and a 32×32 Moore grid, phantom and with real payloads, one
// trial and three, the event engine produces the same Report field for
// field (host wall time and sync.Pool luck aside), the same per-trial
// times and the same receive buffers whether the ranks are coroutines
// running the blocking body or measureLoops stepped by the loop, and
// whether the passes hint mailbox slots (the stepped leg: Measure as it
// runs) or every message is matched by (src, tag) hashing (the
// coroutine reference, and a stepped leg with the hints stripped). The
// Reports include the critical path of the last trial, which must also
// tile its time. The chaos scheduler steps the same measureLoops: under
// DefaultChaos at seeds 0 and 1, on the nine conformance shapes, the
// stepped Measure also records the coroutine body's decision schedule.
func TestSteppedEqualsCoroutine(t *testing.T) {
	shapes, err := conformance.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 9 {
		t.Fatalf("%d conformance shapes, want 9", len(shapes))
	}
	moore, err := vgraph.Moore([]int{32, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	moore32 := conformance.Shape{Name: "32n2s16l/moore32x32", Cluster: topology.Niagara(32, 16), Graph: moore}
	for _, sh := range append(shapes, moore32) {
		for _, algo := range collective.Algos() {
			op, err := collective.New(algo, sh.Graph, sh.Cluster, collective.PlanParams{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, phantom := range []bool{true, false} {
				cfg := Config{Cluster: sh.Cluster, MsgSize: 24, Phantom: phantom, Engine: mpirt.EngineEvent}
				for _, trials := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/%s/phantom=%v/trials=%d", sh.Name, algo, phantom, trials), func(t *testing.T) {
						rc := cfg.runtime()
						rc.CriticalPath = true
						want, wantRep, err := coroutineMeasurement(cfg, rc, op, trials)
						if err != nil {
							t.Fatal(err)
						}
						for _, leg := range []struct {
							name string
							on   func(*mpirt.Proc) mpirt.Endpoint
						}{{"stepped", nil}, {"stepped, unhinted", stripHints}} {
							got, gotRep, err := runMeasurement(cfg, rc, poisoned{op}, trials, leg.on)
							if err != nil {
								t.Fatal(err)
							}
							sameMeasurement(t, leg.name, sh, cfg, got, gotRep, want, wantRep)
							mpirt.PutSlab(got.slab)
						}
						mpirt.PutSlab(want.slab)
					})
				}
				if sh.Name == moore32.Name {
					continue
				}
				for seed := int64(0); seed < 2; seed++ {
					t.Run(fmt.Sprintf("%s/%s/phantom=%v/chaos=%d", sh.Name, algo, phantom, seed), func(t *testing.T) {
						var scheds [2]*trace.Schedule
						chaos := func(i int) mpirt.Config {
							scheds[i] = trace.NewSchedule()
							rc := cfg.runtime()
							rc.CriticalPath = true
							rc.Chaos = mpirt.DefaultChaos(seed)
							rc.Chaos.Record = scheds[i]
							return rc
						}
						want, wantRep, err := coroutineMeasurement(cfg, chaos(0), op, 2)
						if err != nil {
							t.Fatal(err)
						}
						got, gotRep, err := runMeasurement(cfg, chaos(1), poisoned{op}, 2, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !scheds[1].Equal(scheds[0]) {
							t.Errorf("schedules differ at decision %d of %d (coroutine %d)", scheds[1].Diverge(scheds[0]), scheds[1].Len(), scheds[0].Len())
						}
						sameMeasurement(t, "stepped", sh, cfg, got, gotRep, want, wantRep)
						mpirt.PutSlab(got.slab)
						mpirt.PutSlab(want.slab)
					})
				}
			}
		}
	}
}

// poisoned is an op whose every pass first scribbles over the rank's
// receive buffer. The stepped legs run it, so a block one of their
// passes fails to deliver shows as poison, not as the bytes an earlier
// pass or measurement left in a recycled slab.
type poisoned struct{ collective.Op }

func (o poisoned) Begin(ps *collective.Pass, p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	for i := range rbuf {
		rbuf[i] = 0xa5
	}
	o.Op.Begin(ps, p, sbuf, m, rbuf)
}

// sameMeasurement fails t unless a stepped measurement (got, leg) equals
// the coroutine reference (want) — Report, per-trial times and receive
// buffers — and the reference's critical path tiles its time. The
// stepped leg ran a poisoned op, so equal buffers mean its every pass
// delivered every block.
func sameMeasurement(t *testing.T, leg string, sh conformance.Shape, cfg Config, got *measurement, gotRep *mpirt.Report, want *measurement, wantRep *mpirt.Report) {
	t.Helper()
	if sum := pathSum(wantRep.Path); math.Abs(sum-wantRep.Time) > 1e-12 {
		t.Errorf("critical path sums to %g, Time %g", sum, wantRep.Time)
	}
	for _, rep := range []*mpirt.Report{wantRep, gotRep} {
		rep.Wall, rep.PoolHits, rep.PoolMisses = 0, 0, 0
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("reports differ:\n%s %+v\ncoroutine %+v", leg, gotRep, wantRep)
	}
	if !reflect.DeepEqual(got.times, want.times) {
		t.Errorf("per-trial times differ: %s %v, coroutine %v", leg, got.times, want.times)
	}
	for r := range want.rbufs {
		if !bytes.Equal(got.rbufs[r], want.rbufs[r]) {
			t.Fatalf("%s: rank %d receive buffer differs", leg, r)
		}
		for i, u := range sh.Graph.In(r) {
			if !cfg.Phantom && got.rbufs[r][i*cfg.MsgSize] != byte(u) {
				t.Fatalf("%s: rank %d slot %d does not hold rank %d's block", leg, r, i, u)
			}
		}
	}
}

// pathSum adds up a critical path: each transit's α, size/β and
// queueing, and the local spans.
func pathSum(path []mpirt.Span) (sum float64) {
	for _, s := range path {
		if s.Src < 0 {
			sum += s.To - s.From
		} else {
			sum += s.Alpha + s.Wire + s.Queue
		}
	}
	return sum
}

// rank0Probe is an op that samples the goroutine count whenever rank 0
// begins a pass — from inside rank 0's Step, the barrier before it
// having seen every rank run.
type rank0Probe struct {
	collective.Op
	goroutines *int
}

func (o rank0Probe) Begin(ps *collective.Pass, p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	if p.Rank() == 0 {
		*o.goroutines = max(*o.goroutines, runtime.NumGoroutine())
	}
	o.Op.Begin(ps, p, sbuf, m, rbuf)
}

// TestMeasureSpawnsNoRankGoroutines: a Measure of 10 240 ranks runs on
// the loop's goroutine and a handful of helpers — a coroutine per rank
// would show as more than 10 240 here.
func TestMeasureSpawnsNoRankGoroutines(t *testing.T) {
	cfg, g := moore10k(t)
	before, during := runtime.NumGoroutine(), 0
	if _, err := Measure(cfg, rank0Probe{collective.NewNaive(g), &during}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d goroutines while measuring %d ranks, %d before", during, g.N(), before)
	if during == 0 || during > before+8 {
		t.Fatalf("%d goroutines while measuring %d ranks (%d before): want no goroutine per rank", during, g.N(), before)
	}
}

// TestMeasureAllocationBudget bounds what one simulated message costs
// the heap in the moore10k-scale naive cell, start-up included: with a
// coroutine and a Request per receive it was 3.9 mallocs and 443 bytes.
func TestMeasureAllocationBudget(t *testing.T) {
	cfg, g := moore10k(t)
	op := collective.NewNaive(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Measure(cfg, op)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	msgs := float64(res.MsgsPerTrial * int64(res.Trials))
	mallocs := float64(after.Mallocs-before.Mallocs) / msgs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / msgs
	t.Logf("%.2f mallocs and %.0f bytes per simulated message", mallocs, bytes)
	if mallocs > 2 || bytes > 300 {
		t.Fatalf("%.2f mallocs and %.0f bytes per simulated message, budget 2 and 300", mallocs, bytes)
	}
}
