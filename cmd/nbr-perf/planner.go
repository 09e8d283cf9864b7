package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/planverify"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The planner load generator is owned by the benchmark, not
// harness.MeasurePlanThroughput: that function counts admission-control
// rejections as completed plans and folds their latency into the
// percentiles. Here a refused or failed request is excluded from
// throughput and latency and counted as failed.
//
// The loop is closed: each worker sends its next request only after the
// previous one returned, so a slower planner receives less load.

var plannerAlgos = [2]string{"dh", "cn"}

// planLoad is one (neighborhood, algorithm) request target.
type planLoad struct {
	key   plancache.Key
	build plancache.Builder
}

// planner is the request population with its two caches.
type planner struct {
	cluster topology.Cluster
	loads   []planLoad
	graph0  *vgraph.Graph // first graph of the population, for the key probe
	workers int
	seed    int64

	// proven holds the keys whose plan the verify-on-insert hook proved
	// during fill; the churn cache's hook reads it once fill is over.
	proven map[plancache.Key]bool

	hot, churn *plancache.Cache
	resident   int64 // bytes resident in hot after fill

	lats   [][]int64 // per-worker latency buffers, reused across phases
	stream int64     // phases run so far: each draws a fresh Zipf stream
}

// phaseOut is one timed phase.
type phaseOut struct {
	wall          time.Duration
	ok, failed    int
	overloads     int
	sorted        []int64 // latencies of successful requests, ascending (ns)
	before, after plancache.Stats
	firstErr      error
	sampled       []sampledRequest
}

type sampledRequest struct {
	worker     int
	start, end time.Time
}

// newPlanner draws the population and fills the hot cache: each key is
// requested once through a cache whose OnInsert hook runs the
// planverify invariants on the inserted plan's schedule.
func newPlanner(scale string, hoods, workers int, seed int64, tr *tracer) (*planner, error) {
	cluster := plannerCluster(scale)
	gen := plannerGraphs(scale, seed)
	p := &planner{cluster: cluster, workers: workers, seed: seed,
		proven: make(map[plancache.Key]bool, hoods*len(plannerAlgos)),
		lats:   make([][]int64, workers)}
	graphOf := make(map[plancache.Key]*vgraph.Graph, hoods*len(plannerAlgos))
	id := tr.begin("vgraph.gen")
	for i := 0; i < hoods; i++ {
		g, err := gen(i)
		if err != nil {
			return nil, fmt.Errorf("generate planner graph: %w", err)
		}
		if i == 0 {
			p.graph0 = g
		}
		for _, algo := range plannerAlgos {
			g, algo := g, algo
			key := collective.PlanKey(algo, g, cluster, plannerMsg, 0, nil)
			p.loads = append(p.loads, planLoad{key: key, build: func() (any, int64, error) {
				return collective.BuildPlan(algo, g, cluster, 0, nil)
			}})
			graphOf[key] = g
		}
	}
	tr.end(id, nil)

	counts := make([]int, plannerRanks(scale))
	for i := range counts {
		counts[i] = plannerMsg
	}
	var mu sync.Mutex // the hook runs on every filling worker
	p.hot = plancache.New(plancache.Config{MaxBytes: 256 << 20, OnInsert: func(k plancache.Key, _ any) error {
		s, err := planverify.Extract(k.Algo, graphOf[k], cluster, counts, nil, planverify.Params{})
		if err != nil {
			return fmt.Errorf("verify-on-insert %v: %w", k, err)
		}
		if f := s.Verify(); len(f) > 0 {
			return fmt.Errorf("verify-on-insert %v: %d findings, first: %s", k, len(f), f[0])
		}
		mu.Lock()
		p.proven[k] = true
		mu.Unlock()
		return nil
	}})
	id = tr.begin("planner.fill")
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(p.loads) && errs[w] == nil; i += workers {
				_, errs[w] = p.hot.GetOrBuild(p.loads[i].key, p.loads[i].build)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	st := p.hot.Stats()
	tr.end(id, statArgs(plancache.Stats{}, st))
	p.resident = st.Bytes
	if len(p.proven) != len(p.loads) || st.Entries != len(p.loads) {
		return nil, fmt.Errorf("fill: %d of %d keys proven, %d resident (population has colliding keys or outgrew the cache)",
			len(p.proven), len(p.loads), st.Entries)
	}
	return p, nil
}

// startChurn creates the quarter-budget cache and pre-warms it with
// untimed requests. Every plan it admits must be one fill proved.
func (p *planner) startChurn(prewarm int, tr *tracer) error {
	p.churn = plancache.New(plancache.Config{MaxBytes: p.resident / 4, OnInsert: func(k plancache.Key, _ any) error {
		if !p.proven[k] {
			return fmt.Errorf("plan %v was served without having been proven during fill", k)
		}
		return nil
	}})
	id := tr.begin("planner.prewarm")
	out := p.runLoads(p.churn, p.loads, p.workers, prewarm, nil)
	tr.end(id, statArgs(out.before, out.after))
	if out.failed > 0 {
		return fmt.Errorf("prewarm: %d of %d requests failed, first: %w", out.failed, prewarm, out.firstErr)
	}
	return nil
}

// runLoads fires `requests` plan requests for loads at cache from
// `workers` closed-loop workers, each drawing keys from its own seeded
// Zipf stream, and times every request. With a recording tracer every
// 1 024th request of each worker is kept for a span.
func (p *planner) runLoads(cache *plancache.Cache, loads []planLoad, workers, requests int, tr *tracer) phaseOut {
	p.stream++
	out := phaseOut{before: cache.Stats()}
	type tally struct {
		failed, overloads int
		firstErr          error
		sampled           []sampledRequest
	}
	tallies := make([]tally, workers)
	sample := tr != nil && !tr.paused
	if len(p.lats) < workers {
		p.lats = make([][]int64, workers)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		n := requests / workers
		if w < requests%workers {
			n++
		}
		if cap(p.lats[w]) < n {
			p.lats[w] = make([]int64, 0, n)
		}
		p.lats[w] = p.lats[w][:0]
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource((p.seed*1_000_003+p.stream)*64 + int64(w)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(loads)-1))
			t := &tallies[w]
			lats := p.lats[w]
			for i := 0; i < n; i++ {
				ld := &loads[zipf.Uint64()]
				t0 := time.Now()
				_, err := cache.GetOrBuild(ld.key, ld.build)
				t1 := time.Now()
				if err != nil {
					t.failed++
					if errors.Is(err, plancache.ErrOverload) {
						t.overloads++
					}
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				lats = append(lats, t1.Sub(t0).Nanoseconds())
				if sample && i%1024 == 0 {
					t.sampled = append(t.sampled, sampledRequest{w, t0, t1})
				}
			}
			p.lats[w] = lats
		}(w, n)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.after = cache.Stats()
	for w := range tallies {
		t := &tallies[w]
		out.failed += t.failed
		out.overloads += t.overloads
		if out.firstErr == nil {
			out.firstErr = t.firstErr
		}
		out.sampled = append(out.sampled, t.sampled...)
		out.sorted = append(out.sorted, p.lats[w]...)
	}
	out.ok = len(out.sorted)
	slices.Sort(out.sorted)
	return out
}

// plansPerSec counts successful requests only.
func (o *phaseOut) plansPerSec() float64 { return float64(o.ok) / o.wall.Seconds() }

// hitRate is useful ÷ attempted lookups within the phase.
func (o *phaseOut) hitRate() float64 {
	d := o.after
	d.Hits -= o.before.Hits
	d.Misses -= o.before.Misses
	d.Coalesced -= o.before.Coalesced
	return d.HitRate()
}

// statArgs attaches the cache's work counts to a phase span.
func statArgs(before, after plancache.Stats) map[string]any {
	return map[string]any{
		"hits":      after.Hits - before.Hits,
		"misses":    after.Misses - before.Misses,
		"coalesced": after.Coalesced - before.Coalesced,
		"overloads": after.Overloads - before.Overloads,
		"inserts":   after.Inserts - before.Inserts,
		"evictions": after.Evictions - before.Evictions,
		"bytes":     after.Bytes,
		"entries":   after.Entries,
	}
}

// tracePhase runs a phase under a span carrying the cache counts, with
// the sampled requests as children.
func (p *planner) tracePhase(name string, cache *plancache.Cache, requests int, tr *tracer) phaseOut {
	id := tr.begin(name)
	out := p.runLoads(cache, p.loads, p.workers, requests, tr)
	for _, s := range out.sampled {
		tr.add("planner.request", s.start, s.end, map[string]any{"worker": s.worker})
	}
	tr.end(id, statArgs(out.before, out.after))
	return out
}
