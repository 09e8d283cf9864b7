// Fault conformance: every self-healing allgather algorithm runs under
// injected faults, across seeded adversarial schedules. One case type
// covers two halves of one family:
//
//   - Fail-stop: permanent rank crashes — before the collective, in the
//     middle of the halving schedule, on an elected distance-halving
//     agent, on a node leader, and as a multi-crash with a second death
//     timed to land during recovery.
//   - Link faults: a wounded fabric — down NICs, dead ports, severed
//     group uplinks, fabric partitions, degraded links and mixed
//     faults — injected before the collective and mid-schedule.
//
// A case's seed derives one schedule of (kills, link faults), which
// runs either under the recovery wrapper or raw. The matrix pins the
// whole graceful-degradation ladder:
//
//   - Fault-free routes: algorithms whose schedule never crosses the
//     wounded resource must complete cleanly, with no recovery round.
//   - Repairable faults: when the surviving graph stays feasible, the
//     rebuild (survivor projection, avoid sets, CN re-grouping, leader
//     re-election) must leave every survivor with bitwise-correct
//     buffers for the survivor-projected graph.
//   - Unsatisfiable fabrics: when a down resource or cut makes some
//     graph edge permanently undeliverable, every survivor must return
//     the identical typed PartitionError — deterministically, on every
//     engine.
//   - Raw runs must complete cleanly or fail fast with a typed error
//     naming a dead rank or a blocked path, never hang.
//
// Link faults injected at virtual time 0 make the whole outcome a pure
// function of the case, so "before" cases assert exact expectations on
// every driver; mid-schedule outcomes depend on virtual timing, so they
// assert the per-run invariants only, and bit-exact reproduction is the
// chaos replay's job, where serial scheduling pins timing. Chaos
// failures replay bit-exactly from (case, seed) via nbr-chaos -faults.
package conformance

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Fail-stop kinds: where the injected crashes land.
const (
	KindPre    = "pre"    // crash before the collective's first operation
	KindMid    = "mid"    // crash mid-schedule
	KindAgent  = "agent"  // crash an elected distance-halving agent
	KindLeader = "leader" // crash a node leader
	KindMulti  = "multi"  // one crash up front, a second during recovery
	KindRaw    = "raw"    // mid-schedule crash with no recovery wrapper
)

// Link-fault kinds: which resources the schedule wounds.
const (
	LFNicDown     = "nicdown"     // relay node's NIC dies; graph stays feasible
	LFPortDown    = "portdown"    // a sink rank's send port dies
	LFUplinkDown  = "uplinkdown"  // one group's uplink dies over a split graph
	LFPartition   = "partition"   // fabric cut over a graph with cross-cut edges
	LFPartitionOK = "partitionok" // fabric cut over a split graph (feasible)
	LFNicDeg      = "nicdeg"      // degraded NIC: slower, never errs
	LFUplinkDeg   = "uplinkdeg"   // degraded uplink: slower, never errs
	LFMixed       = "mixed"       // down NIC plus degraded port and uplink
)

// Link-fault timings.
const (
	LFBefore = "before" // fault active from virtual time 0
	LFMid    = "mid"    // fault lands mid-schedule
)

// FaultCase is one cell of the fault matrix.
type FaultCase struct {
	Name string
	Base Case // cluster, graph, algorithm and payload size
	// Kind selects the seed-derived schedule (Faults): a fail-stop kind
	// (KindPre…KindRaw) crashes ranks, a link-fault kind
	// (LFNicDown…LFMixed) wounds the fabric at Timing.
	Kind   string
	Timing string
	// Recover selects the self-healing path (RunFTV); false runs the
	// raw collective and asserts the typed error surface instead.
	Recover bool
	// ExpectPartition, for deterministic before-cases, requires every
	// rank to return a PartitionError with exactly ExpectGroups as the
	// cut side (nil Groups for down-resource verdicts).
	ExpectPartition bool
	ExpectGroups    []int
	// ExpectClean, for deterministic before-cases, requires the first
	// attempt to succeed with no recovery round.
	ExpectClean bool
	// ExpectRepair, when non-empty, requires a recovered run to have
	// completed under the named algorithm (e.g. the naive floor).
	ExpectRepair string
	// Kills, when non-nil, replaces the seed-derived kill schedule
	// (ad-hoc injection: nbr-chaos -kill, the fuzzer).
	Kills []mpirt.Kill
}

// CaseName returns the case's name in the fault family.
func (c FaultCase) CaseName() string { return c.Name }

// TrafficComparable: the per-run checker internalises what each fault
// may legitimately produce; how much traffic flows before peers
// observe a death or a dead link depends on host scheduling.
func (c FaultCase) TrafficComparable() bool { return false }

// FaultMatrix returns the deterministic fault family: the fail-stop
// cases, then the link-fault cases. Like Matrix, it depends on nothing
// but the source.
func FaultMatrix() ([]FaultCase, error) {
	cases, err := failStopCases()
	if err != nil {
		return nil, err
	}
	lf, err := linkFaultCases()
	return append(cases, lf...), err
}

// failStopCases crosses every algorithm with the crash kinds it is
// eligible for (agent kills need distance-halving, leader kills the
// leader-based hierarchy) over two cluster shapes and two random graph
// densities.
func failStopCases() ([]FaultCase, error) {
	base, err := Matrix()
	if err != nil {
		return nil, err
	}
	// Every algorithm crosses the four generic kinds; these name the
	// role-specific crash an algorithm adds, after KindMid.
	roleKind := map[string]string{"dh": KindAgent, "leader": KindLeader}
	var cases []FaultCase
	for _, b := range base {
		// One collective per algorithm is enough: fail-stop recovery
		// wraps the allgatherv surface. Keep the two multi-node
		// clusters and the ER graphs (Moore repeats the same code
		// paths with fewer distinct degrees).
		if b.Coll != CollAllgatherv || b.Cluster.Nodes < 2 || !strings.Contains(b.Name, "/er") {
			continue
		}
		kinds := []string{KindPre, KindMid, KindMulti, KindRaw}
		if k, ok := roleKind[b.Algo]; ok {
			kinds = slices.Insert(kinds, 2, k)
		}
		for _, k := range kinds {
			cases = append(cases, FaultCase{
				Name:    fmt.Sprintf("failstop/%s/%s", b.Name, k),
				Base:    b,
				Kind:    k,
				Recover: k != KindRaw,
			})
		}
	}
	return cases, nil
}

// lfCluster is the link-fault cases' machine: 8 ranks on 4
// single-socket nodes of 2, two nodes per group — node 1 hosts ranks
// {2,3}, group 1 hosts ranks {4..7}.
func lfCluster() topology.Cluster {
	return topology.Cluster{Nodes: 4, SocketsPerNode: 1, RanksPerSocket: 2, NodesPerGroup: 2}
}

// lfGraphs builds the link-fault cases' four deterministic graphs over
// the 8-rank cluster:
//
//   - er: an Erdős–Rényi graph with cross-group edges — partitioning
//     the fabric under it is unsatisfiable.
//   - relay: node 1 (ranks 2,3) communicates only with itself (2↔3);
//     the other six ranks are densely connected among themselves. Node
//     1's NIC can die and the graph stays feasible, but rank-chunked
//     relay schedules (CN share groups) cross the dead NIC and must be
//     re-grouped around it.
//   - sink: relay without 3→2 — rank 3 sends nothing, so its port can
//     die and the graph stays feasible.
//   - split: edges confined within each group, so cutting the fabric
//     (or the uplink) between the groups keeps the graph feasible
//     while rank-chunked share groups still straddle the cut.
func lfGraphs() (er, relay, sink, split *vgraph.Graph, err error) {
	const n = 8
	er, err = vgraph.ErdosRenyi(n, 0.5, 91)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cross := false
	for u := 0; u < 4 && !cross; u++ {
		for _, v := range er.Out(u) {
			if v >= 4 {
				cross = true
				break
			}
		}
	}
	if !cross {
		return nil, nil, nil, nil, fmt.Errorf("conformance: link-fault ER graph has no cross-group edge")
	}

	base, err := vgraph.ErdosRenyi(n, 0.6, 93)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	island := func(r int) bool { return r == 2 || r == 3 }
	relayOut := make([][]int, n)
	sinkOut := make([][]int, n)
	splitOut := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, v := range base.Out(u) {
			if !island(u) && !island(v) {
				relayOut[u] = append(relayOut[u], v)
				sinkOut[u] = append(sinkOut[u], v)
			}
			if (u < 4) == (v < 4) {
				splitOut[u] = append(splitOut[u], v)
			}
		}
	}
	relayOut[2] = append(relayOut[2], 3)
	relayOut[3] = append(relayOut[3], 2)
	sinkOut[2] = append(sinkOut[2], 3) // rank 3 keeps no out-edges
	relay, err = vgraph.FromOutLists(n, relayOut)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sink, err = vgraph.FromOutLists(n, sinkOut)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	split, err = vgraph.FromOutLists(n, splitOut)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return er, relay, sink, split, nil
}

// linkFaultCases crosses every algorithm with every link-fault kind at
// both timings under the recovery wrapper, plus raw (non-recovering)
// before-cases for the two hard-failure kinds.
func linkFaultCases() ([]FaultCase, error) {
	er, relay, sink, split, err := lfGraphs()
	if err != nil {
		return nil, err
	}
	graphOf := map[string]*vgraph.Graph{
		LFNicDown:     relay,
		LFPortDown:    sink,
		LFUplinkDown:  split,
		LFPartition:   er,
		LFPartitionOK: split,
		LFNicDeg:      er,
		LFUplinkDeg:   er,
		LFMixed:       relay,
	}
	kinds := []string{
		LFNicDown, LFPortDown, LFUplinkDown, LFPartition,
		LFPartitionOK, LFNicDeg, LFUplinkDeg, LFMixed,
	}
	var cases []FaultCase
	add := func(algo, kind, timing string, recover bool) *FaultCase {
		suffix := timing
		if !recover {
			suffix = "raw"
		}
		cases = append(cases, FaultCase{
			Name: fmt.Sprintf("linkfault/%s/%s/%s", algo, kind, suffix),
			Base: Case{
				Name:    fmt.Sprintf("linkfault/%s/%s", algo, kind),
				Cluster: lfCluster(),
				Graph:   graphOf[kind],
				Algo:    algo,
				Coll:    CollAllgatherv,
				M:       11,
			},
			Kind:    kind,
			Timing:  timing,
			Recover: recover,
		})
		return &cases[len(cases)-1]
	}
	for _, algo := range collective.Algos() {
		for _, kind := range kinds {
			// Faults active from t=0 make the outcome a pure function of
			// the case: pin it.
			lc := add(algo, kind, LFBefore, true)
			switch {
			case kind == LFPartition:
				lc.ExpectPartition = true
				lc.ExpectGroups = []int{0}
			case kind == LFNicDeg || kind == LFUplinkDeg:
				// Degraded fabrics are slower, never broken.
				lc.ExpectClean = true
			case algo == "cn" && (kind == LFPartitionOK || kind == LFUplinkDown):
				// CN's rank-chunked share group {3,4,5} straddles the
				// cut; no avoid set can express that, so the repair loop
				// must land on the naive floor.
				lc.ExpectRepair = "naive"
			case algo == "naive":
				// Naive only uses direct graph edges; every non-partition
				// fault above keeps them feasible.
				lc.ExpectClean = true
			}
			add(algo, kind, LFMid, true)
		}
		// Raw error-surface cases for the two hard-failure kinds.
		add(algo, LFNicDown, LFBefore, false)
		add(algo, LFPartition, LFBefore, false)
	}
	return cases, nil
}

// Faults derives the case's deterministic schedule: the ranks it
// crashes and the link faults it injects. Crash triggers (operation
// counts) and mid-schedule link-fault times (2–5 µs, around the middle
// of these runs' microsecond-scale spans) are jittered by the seed, so
// a sweep lands the fault at different points while any (case, seed)
// pair stays exactly reproducible.
func (c FaultCase) Faults(seed int64) ([]mpirt.Kill, []netmodel.LinkFault) {
	n := c.Base.Graph.N()
	// The non-negative residue: Go's % keeps the dividend's sign, and a
	// negative trigger or fault time is no schedule at all.
	jitter := int((seed%4 + 4) % 4)
	at := 0.0
	if c.Timing == LFMid {
		at = float64(2+jitter) * 1e-6
	}
	var kills []mpirt.Kill
	var faults []netmodel.LinkFault
	switch c.Kind {
	case KindPre:
		kills = []mpirt.Kill{{Rank: n / 3}}
	case KindMid:
		kills = []mpirt.Kill{{Rank: n / 2, AfterOps: 5 + jitter}}
	case KindAgent:
		kills = []mpirt.Kill{{Rank: firstAgent(c.Base), AfterOps: 1 + jitter}}
	case KindLeader:
		// Rank 0 is a leader of node 0 under the identity placement.
		kills = []mpirt.Kill{{Rank: 0, AfterOps: jitter}}
	case KindMulti:
		kills = []mpirt.Kill{{Rank: 1}, {Rank: n - 2, AfterOps: 10 + jitter}}
	case KindRaw:
		kills = []mpirt.Kill{{Rank: n / 2, AfterOps: 2 + jitter}}
	case LFNicDown:
		faults = []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(1), at)}
	case LFPortDown:
		faults = []netmodel.LinkFault{netmodel.LinkDown(netmodel.PortOf(3), at)}
	case LFUplinkDown:
		faults = []netmodel.LinkFault{netmodel.LinkDown(netmodel.UplinkOf(1), at)}
	case LFPartition, LFPartitionOK:
		faults = []netmodel.LinkFault{netmodel.Partition(at, 0)}
	case LFNicDeg:
		faults = []netmodel.LinkFault{netmodel.LinkDegraded(netmodel.NICOf(0), at, 4)}
	case LFUplinkDeg:
		faults = []netmodel.LinkFault{netmodel.LinkDegraded(netmodel.UplinkOf(0), at, 4)}
	case LFMixed:
		faults = []netmodel.LinkFault{
			netmodel.LinkDown(netmodel.NICOf(1), at),
			netmodel.LinkDegraded(netmodel.PortOf(0), at, 2),
			netmodel.LinkDegraded(netmodel.UplinkOf(1), at, 3),
		}
	default:
		panic(fmt.Sprintf("conformance: unknown fault kind %q", c.Kind))
	}
	if c.Kills != nil {
		kills = c.Kills
	}
	return kills, faults
}

// firstAgent returns the first elected agent of the case's
// distance-halving pattern, or rank 1 if negotiation elected none (the
// case then degenerates to an ordinary mid-schedule crash).
func firstAgent(b Case) int {
	pat, err := pattern.Build(b.Graph, b.Cluster.L())
	if err != nil {
		return 1
	}
	for _, pl := range pat.Plans {
		for _, st := range pl.Steps {
			if st.Agent != pattern.NoRank {
				return int(st.Agent)
			}
		}
	}
	return 1
}

// Run executes the case (see Runner) under the schedule seed derives.
func (c FaultCase) Run(eng mpirt.Engine, seed int64, chaos *mpirt.Chaos) (*mpirt.Report, error) {
	op, _, err := buildOp(c.Base)
	if err != nil {
		return nil, err
	}
	kills, faults := c.Faults(seed)
	cfg := mpirt.Config{
		Cluster:    c.Base.Cluster,
		Ranks:      c.Base.Graph.N(),
		Chaos:      chaos,
		Kills:      kills,
		LinkFaults: faults,
		Engine:     eng,
		WallLimit:  caseWallLimit,
	}
	killed := map[int]bool{}
	for _, k := range kills {
		killed[k.Rank] = true
	}
	if c.Recover {
		outcomes, rep, err := runFT(c.Base, cfg, op)
		if err != nil {
			return nil, err
		}
		return rep, c.check(outcomes, killed, len(faults) > 0)
	}
	return runRaw(c.Base, cfg, op, killed)
}

// rankBufs returns rank r's send buffer, its ground-truth full-graph
// receive buffer, and a zeroed receive buffer of that size.
func rankBufs(b Case, counts []int, r int) (sbuf, want, rbuf []byte) {
	sbuf = make([]byte, counts[r])
	fillRank(sbuf, r)
	want = expectedGatherv(b.Graph, r, counts)
	return sbuf, want, make([]byte, len(want))
}

// ftOutcome is one rank's result from the recovery wrapper: at most
// one of res / err is set, neither when the rank was killed.
type ftOutcome struct {
	res  *collective.FTResult
	err  error
	want []byte // the rank's full-graph ground truth
}

// runFT drives the self-healing path and records every returning
// rank's outcome for check.
func runFT(b Case, cfg mpirt.Config, op collective.Op) ([]ftOutcome, *mpirt.Report, error) {
	counts := RaggedCounts(b.Graph.N(), b.M)
	outcomes := make([]ftOutcome, b.Graph.N())
	var mu sync.Mutex
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf, want, rbuf := rankBufs(b, counts, r)
		res, ferr := collective.RunFTV(p, op, sbuf, counts, rbuf)
		mu.Lock()
		outcomes[r] = ftOutcome{res, ferr, want}
		mu.Unlock()
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fault run aborted: %w", err)
	}
	return outcomes, rep, nil
}

// check validates the per-rank outcomes of a recovered run. Every rank
// that was not killed returns. Either all of them return the identical
// repair-layer PartitionError — a verdict only a link fault can cause —
// or all of them agree on the outcome and hold bitwise-correct buffers
// for the graph the run completed on: the full graph, or its projection
// over the survivors AliveOld names.
func (c FaultCase) check(outcomes []ftOutcome, killed map[int]bool, linkFaults bool) error {
	var returned []int
	var firstErr error
	for r, o := range outcomes {
		if o.res == nil && o.err == nil {
			if !killed[r] {
				return fmt.Errorf("non-killed rank %d returned neither result nor error", r)
			}
			continue
		}
		returned = append(returned, r)
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	if len(returned) == 0 {
		return fmt.Errorf("no rank returned a result")
	}
	if firstErr != nil {
		// The only error the wrapper may return is the repair layer's
		// deterministic verdict on a wounded fabric — identical at every
		// survivor.
		var ref *mpirt.PartitionError
		if !linkFaults || !errors.As(firstErr, &ref) || ref.Src != -1 || ref.Dst != -1 {
			return fmt.Errorf("rank error is not a repair-layer partition verdict: %v", firstErr)
		}
		for _, r := range returned {
			var pe *mpirt.PartitionError
			if !errors.As(outcomes[r].err, &pe) || fmt.Sprint(pe.Groups) != fmt.Sprint(ref.Groups) ||
				pe.Src != ref.Src || pe.Dst != ref.Dst {
				return fmt.Errorf("split outcome: rank %d returned %v, another %v", r, outcomes[r].err, firstErr)
			}
		}
		if c.ExpectClean || c.ExpectRepair != "" {
			return fmt.Errorf("expected a completed run, every rank returned %v", firstErr)
		}
		if c.ExpectPartition && fmt.Sprint(ref.Groups) != fmt.Sprint(c.ExpectGroups) {
			return fmt.Errorf("partition verdict names groups %v, want %v", ref.Groups, c.ExpectGroups)
		}
		return nil
	}
	if c.ExpectPartition {
		return fmt.Errorf("expected every rank to return a PartitionError, all succeeded")
	}
	ref := outcomes[returned[0]].res
	for _, r := range returned {
		res := outcomes[r].res
		if res.Recovered != ref.Recovered || res.Rounds != ref.Rounds ||
			fmt.Sprint(res.AliveOld) != fmt.Sprint(ref.AliveOld) || res.Repair != ref.Repair {
			return fmt.Errorf("ranks disagree on outcome: rank %d got (%v, %d, %v, %q), want (%v, %d, %v, %q)",
				r, res.Recovered, res.Rounds, res.AliveOld, res.Repair,
				ref.Recovered, ref.Rounds, ref.AliveOld, ref.Repair)
		}
		if !slices.IsSorted(res.AliveOld) || !slices.IsSorted(res.DeadOld) {
			return fmt.Errorf("rank %d reports survivors %v and dead %v: both must be ascending", r, res.AliveOld, res.DeadOld)
		}
		for _, d := range res.DeadOld {
			if !killed[d] {
				return fmt.Errorf("rank %d reports non-killed rank %d dead", r, d)
			}
			if res.Comm.Contains(d) {
				return fmt.Errorf("dead rank %d still a member of %v", d, res.Comm)
			}
		}
		want := outcomes[r].want
		if res.Recovered {
			// With no deaths the survivor graph is the full graph and no
			// rank may be renumbered.
			nr := res.Comm.NewRank(r)
			if nr < 0 || (len(res.DeadOld) == 0 && nr != r) {
				return fmt.Errorf("returning rank %d renumbered to %d in %v", r, nr, res.Comm)
			}
			want = segments(res.Graph.In(nr), func(u int) int { return res.Counts[u] }, func(seg []byte, u int) { fillRank(seg, res.AliveOld[u]) })
		}
		if err := diffBuf(res.RBuf, want); err != nil {
			return fmt.Errorf("rank %d buffer after %q repair (dead %v): %w", r, res.Repair, res.DeadOld, err)
		}
	}
	if c.ExpectClean && ref.Recovered {
		return fmt.Errorf("expected a clean first attempt, recovered in %d rounds under %q", ref.Rounds, ref.Repair)
	}
	if c.ExpectRepair != "" && (!ref.Recovered || ref.Repair != c.ExpectRepair) {
		return fmt.Errorf("recovered %v under %q, want recovery under %q", ref.Recovered, ref.Repair, c.ExpectRepair)
	}
	return nil
}

// runRaw drives the raw collective (no recovery wrapper) and asserts
// the ULFM error surface: every rank either completes with a correct
// full-graph buffer, or observes a typed failure — a killed rank, or a
// path the fabric's final state blocks — and revokes so peers blocked
// on it cannot starve, or observes a peer's revocation. The run must
// never deadlock or abort.
func runRaw(b Case, cfg mpirt.Config, op collective.Op, killed map[int]bool) (*mpirt.Report, error) {
	counts := RaggedCounts(b.Graph.N(), b.M)
	var mu sync.Mutex
	var violations []string
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf, want, rbuf := rankBufs(b, counts, r)
		complain := func(format string, a ...any) {
			mu.Lock()
			violations = append(violations, fmt.Sprintf("rank %d "+format, append([]any{r}, a...)...))
			mu.Unlock()
		}
		blocked := func(what string, src, dst int) {
			if _, bad := p.Model().PathBlockedFinal(src, dst); !bad {
				complain("observed %s on feasible path %d→%d", what, src, dst)
			}
			p.Revoke()
		}
		defer func() {
			rec := recover()
			switch e := rec.(type) {
			case nil:
				if derr := diffBuf(rbuf, want); derr != nil {
					complain("completed with wrong buffer: %v", derr)
				}
			case *mpirt.RankFailedError:
				if !killed[e.Rank] {
					complain("observed failure of non-killed rank %d", e.Rank)
				}
				p.Revoke()
			case *mpirt.LinkFailedError:
				blocked("a link failure", e.Src, e.Dst)
			case *mpirt.PartitionError:
				blocked("a partition", e.Src, e.Dst)
			case *mpirt.CommRevokedError:
				// A peer revoked after observing the fault first.
			default:
				panic(rec)
			}
		}()
		op.RunV(p, sbuf, counts, rbuf)
	})
	if err != nil {
		return nil, fmt.Errorf("raw fault run aborted: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		return nil, fmt.Errorf("%s", violations[0])
	}
	return rep, nil
}

// diffBuf describes the first difference between a received buffer and
// its ground truth, or returns nil.
func diffBuf(got, want []byte) error {
	if len(got) == len(want) {
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		if i == len(got) {
			return nil
		}
		return fmt.Errorf("mismatch at byte %d/%d (got %d want %d)", i, len(want), at(got, i), at(want, i))
	}
	return fmt.Errorf("length %d, want %d", len(got), len(want))
}
