// Package conformance is the differential chaos-testing harness for
// the collective algorithms: it runs every algorithm × collective
// combination over a deterministic matrix of cluster shapes and
// virtual graphs under seeded adversarial schedules (internal/mpirt's
// chaos driver) and demands byte-identical buffers against an
// analytically computed ground truth, plus intact pattern invariants.
// Any failing (case, seed) pair is reported with the exact seed;
// because chaos execution is a pure function of the seed,
// `nbr-chaos -replay` reproduces the identical schedule.
//
// Two case families — the matrix here and the faults (faults.go: rank
// crashes and link faults, one FaultCase) — share one Runner
// interface, so there is one Failure, one Find, one Sweep and one
// cross-engine Diff (differential.go) for both.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Collective kinds a Case can exercise.
const (
	CollAllgather  = "allgather"
	CollAllgatherv = "allgatherv"
	CollAlltoall   = "alltoall"
	CollAlltoallv  = "alltoallv"
	CollPersistent = "persistent" // persistent allgatherv handle, 3 rounds
	CollPattern    = "pattern"    // distributed pattern builder vs central
)

// caseWallLimit bounds one case's host wall time. A case runs in
// milliseconds, so a rank body that blocks the host (and with it the
// serial loop) fails its case in seconds with the reproduce line,
// instead of stalling the sweep at the runtime's 120 s default.
const caseWallLimit = 5 * time.Second

// The algorithm a Case exercises is a collective.Algos name; the
// alltoall collectives run those with collective.HasAlltoall and
// CollPattern ignores the field.

// Case is one cell of the conformance matrix: a machine shape, a
// virtual neighborhood graph over its ranks, and one algorithm ×
// collective pair to validate.
type Case struct {
	Name    string
	Cluster topology.Cluster
	Graph   *vgraph.Graph
	Algo    string
	Coll    string
	// M is the uniform payload size; ragged variants derive per-rank /
	// per-edge sizes from it deterministically.
	M int
	// endpoint, when non-nil, is what the collective runs against in
	// place of the rank's *mpirt.Proc (tests: the hint-stripping leg).
	endpoint func(*mpirt.Proc) mpirt.Endpoint
}

// on is the endpoint rank p's collective runs against.
func (c Case) on(p *mpirt.Proc) mpirt.Endpoint {
	if c.endpoint != nil {
		return c.endpoint(p)
	}
	return p
}

// CaseName returns the case's matrix name.
func (c Case) CaseName() string { return c.Name }

// TrafficComparable: a matrix case injects nothing, so its message
// and byte censuses are a property of the program alone.
func (c Case) TrafficComparable() bool { return true }

// Runner is one conformance case of any family.
type Runner interface {
	// CaseName is the name Find looks up and nbr-chaos -case takes.
	CaseName() string
	// Run executes the case once and checks it against its ground
	// truth: under the chaos driver when chaos is non-nil, else under
	// plain scheduling on eng. seed derives the family's injected
	// fault schedule; matrix cases ignore it.
	Run(eng mpirt.Engine, seed int64, chaos *mpirt.Chaos) (*mpirt.Report, error)
	// TrafficComparable reports whether any two passing plain runs of
	// the case must count the same messages and bytes. It is false when
	// an injected fault races the traffic: how much flows before peers
	// observe a death or a dead link depends on host scheduling, even
	// between two runs on the threaded engine.
	TrafficComparable() bool
}

// Failure is one (case, seed) conformance violation.
type Failure struct {
	Case Runner
	Seed int64
	Err  error
}

func (f Failure) String() string {
	return fmt.Sprintf("%s seed=%d: %v", f.Case.CaseName(), f.Seed, f.Err)
}

// graphSpec names one deterministic graph family instantiation.
type graphSpec struct {
	name  string
	build func(n int) (*vgraph.Graph, error)
}

// Shape is one (cluster shape, graph) cell of the conformance matrix,
// before the algorithm/collective dimension is applied. The static
// plan verifier sweeps the same shapes, so a plan proven there and a
// chaos run exercised here describe the identical schedule.
type Shape struct {
	Name    string // "<cluster>/<graph>", e.g. "2n2s3l/er35"
	Cluster topology.Cluster
	Graph   *vgraph.Graph
}

// Shapes returns the deterministic (cluster, graph) cells of the
// matrix: three cluster shapes (multi-node, uneven groups, single
// node) × ER and Moore graphs. Graph families that cannot be mapped
// onto a cluster (a Moore dimensionalisation missing the rank count
// exactly) are skipped.
func Shapes() ([]Shape, error) {
	clusters := []struct {
		name string
		c    topology.Cluster
	}{
		{"2n2s3l", topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}},
		{"3n2s2l", topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}},
		{"1n2s4l", topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 4}},
	}
	graphs := []graphSpec{
		{"er35", func(n int) (*vgraph.Graph, error) { return vgraph.ErdosRenyi(n, 0.35, 77) }},
		{"er70", func(n int) (*vgraph.Graph, error) { return vgraph.ErdosRenyi(n, 0.70, 78) }},
		{"moore", func(n int) (*vgraph.Graph, error) {
			dims, err := vgraph.MooreDims(n, 2)
			if err != nil {
				return nil, err
			}
			return vgraph.Moore(dims, 1)
		}},
	}
	var shapes []Shape
	for _, cl := range clusters {
		n := cl.c.Ranks()
		for _, gs := range graphs {
			g, err := gs.build(n)
			if err != nil {
				return nil, fmt.Errorf("conformance: graph %s for %s: %w", gs.name, cl.name, err)
			}
			if g.N() != n {
				// A Moore dimensionalisation may not hit n exactly;
				// such a graph cannot be mapped onto the cluster.
				continue
			}
			shapes = append(shapes, Shape{
				Name:    fmt.Sprintf("%s/%s", cl.name, gs.name),
				Cluster: cl.c,
				Graph:   g,
			})
		}
	}
	return shapes, nil
}

// Matrix returns the full deterministic conformance matrix: the
// Shapes cells × every algorithm/collective pair that algorithm
// implements, plus the distributed pattern builder cases. The matrix
// depends on nothing but the source — every caller sees the same
// cases in the same order, so a (case name, seed) pair fully
// identifies a run.
func Matrix() ([]Case, error) {
	shapes, err := Shapes()
	if err != nil {
		return nil, err
	}
	type combo struct{ algo, coll string }
	var combos []combo
	for _, coll := range []string{CollAllgather, CollAllgatherv} {
		for _, algo := range collective.Algos() {
			combos = append(combos, combo{algo, coll})
		}
	}
	for _, coll := range []string{CollAlltoall, CollAlltoallv} {
		for _, algo := range collective.Algos() {
			if collective.HasAlltoall(algo) {
				combos = append(combos, combo{algo, coll})
			}
		}
	}
	// The persistent handle only wraps RunV: the direct and the relayed
	// extreme cover it.
	combos = append(combos, combo{"naive", CollPersistent}, combo{"dh", CollPersistent}, combo{"dh", CollPattern})
	var cases []Case
	for _, sh := range shapes {
		for _, co := range combos {
			cases = append(cases, Case{
				Name:    fmt.Sprintf("%s/%s/%s", sh.Name, co.algo, co.coll),
				Cluster: sh.Cluster,
				Graph:   sh.Graph,
				Algo:    co.algo,
				Coll:    co.coll,
				M:       11, // deliberately odd, not a word multiple
			})
		}
	}
	return cases, nil
}

// Find returns the case of the family with the given name.
func Find[C Runner](cases []C, name string) (C, error) {
	for _, c := range cases {
		if c.CaseName() == name {
			return c, nil
		}
	}
	var none C
	return none, fmt.Errorf("conformance: unknown case %q", name)
}

// Run executes the case (see Runner) and returns an error describing
// the first conformance violation, if any.
func (c Case) Run(eng mpirt.Engine, _ int64, chaos *mpirt.Chaos) (*mpirt.Report, error) {
	if c.Coll == CollPattern {
		return runPatternCase(c, chaos, eng)
	}
	body, err := caseBody(c)
	if err != nil {
		return nil, err
	}
	return mpirt.Run(mpirt.Config{Cluster: c.Cluster, Chaos: chaos, Engine: eng, WallLimit: caseWallLimit}, body)
}

// A Check runs one (case, seed) pair and returns its violation, if
// any: UnderChaos, On, and Diff are the three a sweep is made of.
type Check func(c Runner, seed int64) error

// UnderChaos checks each pair under the chaos driver, building the
// seed's configuration with mk (e.g. mpirt.DefaultChaos).
func UnderChaos(mk func(int64) *mpirt.Chaos) Check {
	return func(c Runner, seed int64) error {
		_, err := c.Run(mpirt.EngineDefault, seed, mk(seed))
		return err
	}
}

// On checks each pair under plain scheduling on one engine.
func On(eng mpirt.Engine) Check {
	return func(c Runner, seed int64) error {
		_, err := c.Run(eng, seed, nil)
		return err
	}
}

// Sweep checks every case under every seed. progress, when non-nil, is
// called after each completed seed with the running failure count.
//
// Cases within a seed run concurrently on a sweep worker pool (every
// case is an independent simulation); failures are collected in case
// order and progress still fires once per seed, so the output is
// byte-identical to the sequential loop.
func Sweep[C Runner](cases []C, seeds []int64, check Check, progress func(done, failures int)) []Failure {
	var failures []Failure
	for i, seed := range seeds {
		_, err := sweep.Map(context.Background(), len(cases), func(j int) (struct{}, error) {
			return struct{}{}, check(cases[j], seed)
		})
		var agg *sweep.Error
		if errors.As(err, &agg) {
			for _, it := range agg.Items {
				failures = append(failures, Failure{Case: cases[it.Index], Seed: seed, Err: it.Err})
			}
		}
		if progress != nil {
			progress(i+1, len(failures))
		}
	}
	return failures
}

// RaggedCounts returns the deterministic per-rank allgatherv counts of
// the matrix's ragged cases, exported so the plan verifier charges the
// byte sizes the simulator actually moves: sizes cycle through [1, m]
// so neighbors contribute unequal, never-zero payloads (MPI permits
// zero recvcounts, but several sub-size cases would then collapse to
// nothing; zero-length segments are exercised by the alltoallv counts
// below and the RunAV property test).
func RaggedCounts(n, m int) []int {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1 + (i*5)%m
	}
	return counts
}

// RaggedEdgeCounts returns the deterministic alltoallv CountFunc of the
// matrix's ragged cases: per-edge sizes in [0, m], including genuinely
// empty segments. Exported for the plan verifier, like RaggedCounts.
func RaggedEdgeCounts(m int) collective.CountFunc {
	return func(src, dst int) int {
		return (src*3 + dst*5) % (m + 1)
	}
}

// fillRank writes rank r's verification pattern (the collective_test
// idiom: position- and rank-dependent bytes).
func fillRank(buf []byte, r int) {
	for i := range buf {
		buf[i] = byte(r*131 + i*7 + 3)
	}
}

// fillEdge writes the verification pattern of alltoall segment
// src → dst.
func fillEdge(buf []byte, src, dst int) {
	for i := range buf {
		buf[i] = byte(src*251 + dst*17 + i*3 + 1)
	}
}

// segments concatenates, over ranks, one size(u)-byte segment each,
// written by fill.
func segments(ranks []int, size func(u int) int, fill func(seg []byte, u int)) []byte {
	var out []byte
	for _, u := range ranks {
		seg := make([]byte, size(u))
		fill(seg, u)
		out = append(out, seg...)
	}
	return out
}

// expectedGatherv is rank r's ground-truth allgatherv receive buffer:
// incoming neighbors' patterns concatenated in ascending rank order.
func expectedGatherv(g *vgraph.Graph, r int, counts []int) []byte {
	return segments(g.In(r), func(u int) int { return counts[u] }, fillRank)
}

// expectedScatterv is rank r's ground-truth alltoallv receive buffer.
func expectedScatterv(g *vgraph.Graph, r int, counts collective.CountFunc) []byte {
	return segments(g.In(r), func(u int) int { return counts(u, r) }, func(seg []byte, u int) { fillEdge(seg, u, r) })
}

// sendBufAV is rank r's alltoallv send buffer: per-destination
// segments concatenated in ascending neighbor order.
func sendBufAV(g *vgraph.Graph, r int, counts collective.CountFunc) []byte {
	return segments(g.Out(r), func(v int) int { return counts(r, v) }, func(seg []byte, v int) { fillEdge(seg, r, v) })
}

// checkBuf compares a received buffer against ground truth and panics
// with a descriptive conformance error on the first mismatch; run
// inside the rank body, mpirt converts it into a Run error.
func checkBuf(what string, r int, got, want []byte) {
	if err := diffBuf(got, want); err != nil {
		panic(fmt.Sprintf("conformance: rank %d %s %v", r, what, err))
	}
}

func at(b []byte, i int) int {
	if i < len(b) {
		return int(b[i])
	}
	return -1
}

// buildOp constructs the allgather-family operation for a case, with
// the conformance-suite parameters.
func buildOp(c Case) (collective.Op, *pattern.Pattern, error) {
	op, err := collective.New(c.Algo, c.Graph, c.Cluster, collective.PlanParams{}, nil)
	if err != nil {
		return nil, nil, err
	}
	return op, op.Pattern(), nil
}

// caseBody builds the per-rank body for a collective case, including
// construction-time and post-hoc pattern invariant checks.
func caseBody(c Case) (func(*mpirt.Proc), error) {
	g := c.Graph
	var pat *pattern.Pattern
	var op collective.Op
	var aop *collective.Alltoall
	var err error
	switch c.Coll {
	case CollAllgather, CollAllgatherv, CollPersistent:
		op, pat, err = buildOp(c)
	case CollAlltoall, CollAlltoallv:
		if aop, err = collective.NewAlltoall(c.Algo, g, c.Cluster, collective.PlanParams{}); err == nil {
			pat = aop.Pattern()
		}
	default:
		return nil, fmt.Errorf("conformance: unknown collective %q", c.Coll)
	}
	if err != nil {
		return nil, err
	}
	// Per rank for the allgathers, per edge for the alltoalls.
	counts, edges := RaggedCounts(g.N(), c.M), collective.UniformCount(c.M)
	if c.Coll == CollAllgather {
		counts = slices.Repeat([]int{c.M}, g.N())
	} else if c.Coll == CollAlltoallv {
		edges = RaggedEdgeCounts(c.M)
	}
	runRank := func(p *mpirt.Proc) {
		r, ep := p.Rank(), c.on(p)
		sbuf, want := make([]byte, counts[r]), expectedGatherv(g, r, counts)
		fillRank(sbuf, r)
		if aop != nil {
			sbuf, want = sendBufAV(g, r, edges), expectedScatterv(g, r, edges)
		}
		rbuf := make([]byte, len(want))
		switch c.Coll {
		case CollAllgather:
			op.Run(ep, sbuf, c.M, rbuf)
		case CollAllgatherv:
			op.RunV(ep, sbuf, counts, rbuf)
		case CollAlltoall:
			aop.RunA(ep, sbuf, c.M, rbuf)
		case CollAlltoallv:
			aop.RunAV(ep, sbuf, edges, rbuf)
		case CollPersistent:
			pr, err := collective.AllgathervInit(op, ep, sbuf, counts, rbuf)
			if err != nil {
				panic(err)
			}
			// Three rounds over one handle: Start/Wait twice, then the
			// blocking convenience; the buffers bind once.
			for round := 0; round < 3; round++ {
				clear(rbuf)
				if round < 2 {
					pr.Start()
					pr.Wait()
				} else {
					pr.Run()
				}
				checkBuf(fmt.Sprintf("persistent round %d rbuf", round), r, rbuf, want)
			}
			return
		}
		checkBuf(c.Coll+" rbuf", r, rbuf, want)
	}

	if pat != nil {
		if err := pat.Validate(); err != nil {
			return nil, fmt.Errorf("conformance: pattern invalid before run: %w", err)
		}
	}
	body := func(p *mpirt.Proc) {
		runRank(p)
		if pat != nil && p.Rank() == 0 {
			// The collective must not corrupt its (shared, read-only)
			// pattern under any schedule.
			if err := pat.Validate(); err != nil {
				panic(fmt.Sprintf("conformance: pattern invariants violated after run: %v", err))
			}
		}
	}
	return body, nil
}

// runPatternCase runs the distributed pattern builder (Algorithms 1–3,
// the negotiation protocol with AnySource receives — the highest-risk
// reordering path) under chaos and demands the proposer-optimal
// outcome: plan-identical to the central builder, regardless of
// schedule.
func runPatternCase(c Case, chaos *mpirt.Chaos, eng mpirt.Engine) (*mpirt.Report, error) {
	central, err := pattern.Build(c.Graph, c.Cluster.L())
	if err != nil {
		return nil, err
	}
	dist, rep, err := pattern.BuildDistributed(mpirt.Config{Cluster: c.Cluster, Phantom: true, Chaos: chaos, Engine: eng, WallLimit: caseWallLimit}, c.Graph)
	if err != nil {
		return nil, fmt.Errorf("distributed build: %w", err)
	}
	if err := dist.Validate(); err != nil {
		return nil, fmt.Errorf("distributed pattern invalid: %w", err)
	}
	for r := range central.Plans {
		cp, dp := central.Plans[r], dist.Plans[r]
		if len(cp.Steps) != len(dp.Steps) {
			return nil, fmt.Errorf("rank %d: central has %d steps, distributed %d", r, len(cp.Steps), len(dp.Steps))
		}
		for i := range cp.Steps {
			if cp.Steps[i].Agent != dp.Steps[i].Agent || cp.Steps[i].Origin != dp.Steps[i].Origin {
				return nil, fmt.Errorf("rank %d step %d: central (agent=%d origin=%d) != distributed (agent=%d origin=%d)",
					r, i, cp.Steps[i].Agent, cp.Steps[i].Origin, dp.Steps[i].Agent, dp.Steps[i].Origin)
			}
		}
		// Both builders lay a rank's lists out alike: the plans are equal.
		if !reflect.DeepEqual(cp, dp) {
			return nil, fmt.Errorf("rank %d plans differ under adversarial schedule", r)
		}
	}
	if central.Stats != dist.Stats {
		return nil, fmt.Errorf("pattern stats differ: central %+v, distributed %+v", central.Stats, dist.Stats)
	}
	return rep, nil
}
