// Link-fault conformance: every self-healing allgather algorithm runs
// on a wounded fabric — down NICs, dead ports, severed group uplinks,
// fabric partitions, degraded links, and mixed faults — injected before
// the collective and mid-schedule, with and without the recovery
// wrapper. The matrix pins the whole graceful-degradation ladder:
//
//   - Fault-free routes: algorithms whose schedule never crosses the
//     wounded resource must complete cleanly, with no recovery round.
//   - Repairable faults: when the surviving graph stays feasible, the
//     link-aware rebuild (avoid sets, CN re-grouping, leader
//     re-election) must converge to bitwise-correct full-graph buffers
//     at every rank.
//   - Unsatisfiable fabrics: when a down resource or cut makes some
//     graph edge permanently undeliverable, every rank must return the
//     identical typed PartitionError — deterministically, on every
//     engine.
//   - Raw runs must fail fast with typed link errors, never hang.
//
// Faults injected at virtual time 0 make the whole outcome a pure
// function of the case, so "before" cases assert exact expectations on
// every driver; mid-schedule outcomes depend on virtual timing, so
// "mid" cases assert the per-run invariants (all-or-nothing success or
// identical partition verdicts), and bit-exact reproduction is the
// chaos replay's job, where serial scheduling pins timing.
package conformance

import (
	"errors"
	"fmt"
	"sync"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
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

// LinkFaultCase is one cell of the link-fault matrix.
type LinkFaultCase struct {
	Name string
	Base Case // cluster, graph, algorithm and payload size
	// Fault and Timing select the fault schedule (LinkFaultSchedule).
	Fault  string
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
}

// CaseName returns the case's name in the link-fault family.
func (c LinkFaultCase) CaseName() string { return c.Name }

// TrafficComparable: the per-run checker internalises what each
// timing may legitimately produce; how much traffic flows before a
// rank observes the fault depends on host scheduling.
func (c LinkFaultCase) TrafficComparable() bool { return false }

// lfCluster is the matrix's machine: 8 ranks on 4 single-socket nodes
// of 2, two nodes per group — node 1 hosts ranks {2,3}, group 1 hosts
// ranks {4..7}.
func lfCluster() topology.Cluster {
	return topology.Cluster{Nodes: 4, SocketsPerNode: 1, RanksPerSocket: 2, NodesPerGroup: 2}
}

// lfGraphs builds the matrix's four deterministic graphs over the
// 8-rank cluster:
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

// LinkFaultMatrix returns the deterministic link-fault case family:
// every algorithm crosses every fault kind at both timings under the
// recovery wrapper, plus raw (non-recovering) before-cases for the two
// hard-failure kinds. Like Matrix, it depends on nothing but the
// source.
func LinkFaultMatrix() ([]LinkFaultCase, error) {
	er, relay, sink, split, err := lfGraphs()
	if err != nil {
		return nil, err
	}
	c := lfCluster()
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
	faults := []string{
		LFNicDown, LFPortDown, LFUplinkDown, LFPartition,
		LFPartitionOK, LFNicDeg, LFUplinkDeg, LFMixed,
	}
	var cases []LinkFaultCase
	for _, algo := range collective.Algos() {
		for _, fault := range faults {
			for _, timing := range []string{LFBefore, LFMid} {
				lc := LinkFaultCase{
					Name: fmt.Sprintf("linkfault/%s/%s/%s", algo, fault, timing),
					Base: Case{
						Name:    fmt.Sprintf("linkfault/%s/%s", algo, fault),
						Cluster: c,
						Graph:   graphOf[fault],
						Algo:    algo,
						Coll:    CollAllgatherv,
						M:       11,
					},
					Fault:   fault,
					Timing:  timing,
					Recover: true,
				}
				if timing == LFBefore {
					// Faults active from t=0 make the outcome a pure
					// function of the case: pin it.
					switch {
					case fault == LFPartition:
						lc.ExpectPartition = true
						lc.ExpectGroups = []int{0}
					case fault == LFNicDeg || fault == LFUplinkDeg:
						// Degraded fabrics are slower, never broken.
						lc.ExpectClean = true
					case algo == "cn" && (fault == LFPartitionOK || fault == LFUplinkDown):
						// CN's rank-chunked share group {3,4,5} straddles
						// the cut; no avoid set can express that, so the
						// repair loop must land on the naive floor.
						lc.ExpectRepair = "naive"
					case algo == "naive":
						// Naive only uses direct graph edges; every
						// non-partition fault above keeps them feasible.
						lc.ExpectClean = true
					}
				}
				cases = append(cases, lc)
			}
		}
		// Raw error-surface cases for the two hard-failure kinds.
		for _, fault := range []string{LFNicDown, LFPartition} {
			cases = append(cases, LinkFaultCase{
				Name: fmt.Sprintf("linkfault/%s/%s/raw", algo, fault),
				Base: Case{
					Name:    fmt.Sprintf("linkfault/%s/%s", algo, fault),
					Cluster: c,
					Graph:   graphOf[fault],
					Algo:    algo,
					Coll:    CollAllgatherv,
					M:       11,
				},
				Fault:   fault,
				Timing:  LFBefore,
				Recover: false,
			})
		}
	}
	return cases, nil
}

// LinkFaultSchedule derives the case's deterministic fault schedule.
// Mid-schedule timings are jittered by the seed (2–5 µs, around the
// middle of these runs' microsecond-scale spans) so a sweep lands the
// fault at different points while any (case, seed) pair stays exactly
// reproducible.
func LinkFaultSchedule(c LinkFaultCase, seed int64) []netmodel.LinkFault {
	at := 0.0
	if c.Timing == LFMid {
		at = float64(2+seed%4) * 1e-6
	}
	switch c.Fault {
	case LFNicDown:
		return []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(1), at)}
	case LFPortDown:
		return []netmodel.LinkFault{netmodel.LinkDown(netmodel.PortOf(3), at)}
	case LFUplinkDown:
		return []netmodel.LinkFault{netmodel.LinkDown(netmodel.UplinkOf(1), at)}
	case LFPartition, LFPartitionOK:
		return []netmodel.LinkFault{netmodel.Partition(at, 0)}
	case LFNicDeg:
		return []netmodel.LinkFault{netmodel.LinkDegraded(netmodel.NICOf(0), at, 4)}
	case LFUplinkDeg:
		return []netmodel.LinkFault{netmodel.LinkDegraded(netmodel.UplinkOf(0), at, 4)}
	case LFMixed:
		return []netmodel.LinkFault{
			netmodel.LinkDown(netmodel.NICOf(1), at),
			netmodel.LinkDegraded(netmodel.PortOf(0), at, 2),
			netmodel.LinkDegraded(netmodel.UplinkOf(1), at, 3),
		}
	default:
		panic(fmt.Sprintf("conformance: unknown link-fault kind %q", c.Fault))
	}
}

// Run executes the case (see Runner) with the fault schedule seed
// derives.
func (c LinkFaultCase) Run(eng mpirt.Engine, seed int64, chaos *mpirt.Chaos) (*mpirt.Report, error) {
	op, _, err := buildVOp(c.Base)
	if err != nil {
		return nil, err
	}
	cfg := mpirt.Config{
		Cluster:    c.Base.Cluster,
		Ranks:      c.Base.Graph.N(),
		Chaos:      chaos,
		LinkFaults: LinkFaultSchedule(c, seed),
		Engine:     eng,
	}
	if c.Recover {
		return runLinkFaultFT(c, cfg, op)
	}
	return runLinkFaultRaw(c, cfg, op)
}

// lfOutcome is one rank's result from the recovery wrapper: exactly one
// of res / err is set.
type lfOutcome struct {
	res *collective.FTResult
	err error
}

// runLinkFaultFT drives the self-healing path and validates the
// all-or-nothing contract: every rank succeeds with consistent recovery
// metadata and bitwise-correct full-graph buffers, or every rank
// returns the identical PartitionError.
func runLinkFaultFT(c LinkFaultCase, cfg mpirt.Config, op collective.VOp) (*mpirt.Report, error) {
	g := c.Base.Graph
	n := g.N()
	counts := ragged(n, c.Base.M)
	outcomes := make([]lfOutcome, n)
	var mu sync.Mutex
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, counts[r])
		fillRank(sbuf, r)
		rbuf := make([]byte, len(expectedGatherv(g, r, counts)))
		res, ferr := collective.RunFTV(p, op, sbuf, counts, rbuf)
		mu.Lock()
		outcomes[r] = lfOutcome{res: res, err: ferr}
		mu.Unlock()
	})
	if err != nil {
		return nil, fmt.Errorf("link-fault run aborted: %w", err)
	}
	return rep, checkLinkFaultResults(c, g, counts, outcomes)
}

// checkLinkFaultResults validates the per-rank outcomes of a recovered
// link-fault run.
func checkLinkFaultResults(c LinkFaultCase, g *vgraph.Graph, counts []int, outcomes []lfOutcome) error {
	var firstErr error
	nErr := 0
	for _, o := range outcomes {
		if o.err != nil {
			nErr++
			if firstErr == nil {
				firstErr = o.err
			}
		}
	}
	if nErr > 0 {
		// The only error the wrapper may return is the repair layer's
		// deterministic verdict — identical at every rank.
		if nErr != len(outcomes) {
			return fmt.Errorf("split outcome: %d/%d ranks errored (first: %v)", nErr, len(outcomes), firstErr)
		}
		var ref *mpirt.PartitionError
		if !errors.As(firstErr, &ref) || ref.Src != -1 || ref.Dst != -1 {
			return fmt.Errorf("rank error is not a repair-layer partition verdict: %v", firstErr)
		}
		for r, o := range outcomes {
			var pe *mpirt.PartitionError
			if !errors.As(o.err, &pe) || fmt.Sprint(pe.Groups) != fmt.Sprint(ref.Groups) ||
				pe.Src != ref.Src || pe.Dst != ref.Dst {
				return fmt.Errorf("rank %d verdict %v differs from rank 0's %v", r, o.err, firstErr)
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
	// All ranks completed: recovery metadata must agree, and — since no
	// rank dies in this matrix — the survivor graph is the full graph,
	// so every buffer must be the full ground truth.
	ref := outcomes[0].res
	for r, o := range outcomes {
		res := o.res
		if res == nil {
			return fmt.Errorf("rank %d returned neither result nor error", r)
		}
		if res.Recovered != ref.Recovered || res.Rounds != ref.Rounds || res.Repair != ref.Repair {
			return fmt.Errorf("ranks disagree on outcome: rank %d got (%v, %d, %q), rank 0 (%v, %d, %q)",
				r, res.Recovered, res.Rounds, res.Repair, ref.Recovered, ref.Rounds, ref.Repair)
		}
		if len(res.DeadOld) != 0 {
			return fmt.Errorf("rank %d reports dead ranks %v with no kills injected", r, res.DeadOld)
		}
		var want []byte
		if res.Recovered {
			nr := res.Comm.NewRank(r)
			if nr != r {
				return fmt.Errorf("rank %d renumbered to %d with no deaths", r, nr)
			}
			for _, u := range res.Graph.In(nr) {
				seg := make([]byte, res.Counts[u])
				fillRank(seg, res.AliveOld[u])
				want = append(want, seg...)
			}
		} else {
			want = expectedGatherv(g, r, counts)
		}
		if derr := diffBuf(res.RBuf, want); derr != nil {
			return fmt.Errorf("rank %d buffer after %q repair: %w", r, res.Repair, derr)
		}
	}
	if c.ExpectClean && ref.Recovered {
		return fmt.Errorf("expected a clean first attempt, recovered in %d rounds under %q", ref.Rounds, ref.Repair)
	}
	if c.ExpectRepair != "" {
		if !ref.Recovered {
			return fmt.Errorf("expected recovery under %q, first attempt succeeded", c.ExpectRepair)
		}
		if ref.Repair != c.ExpectRepair {
			return fmt.Errorf("recovered under %q, want %q", ref.Repair, c.ExpectRepair)
		}
	}
	return nil
}

// runLinkFaultRaw drives the raw collective (no recovery wrapper) and
// asserts the typed error surface: every rank either completes with a
// correct full-graph buffer or observes a typed link failure (or a
// peer's revocation) and revokes — the run must never deadlock.
func runLinkFaultRaw(c LinkFaultCase, cfg mpirt.Config, op collective.VOp) (*mpirt.Report, error) {
	g := c.Base.Graph
	counts := ragged(g.N(), c.Base.M)
	var mu sync.Mutex
	var violations []string
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, counts[r])
		fillRank(sbuf, r)
		want := expectedGatherv(g, r, counts)
		rbuf := make([]byte, len(want))
		complain := func(format string, a ...any) {
			mu.Lock()
			violations = append(violations, fmt.Sprintf(format, a...))
			mu.Unlock()
		}
		defer func() {
			rec := recover()
			switch e := rec.(type) {
			case nil:
				if derr := diffBuf(rbuf, want); derr != nil {
					complain("rank %d completed with wrong buffer: %v", r, derr)
				}
			case *mpirt.LinkFailedError:
				// Fail-fast on the wounded path; revoke so peers blocked
				// on this rank's traffic cannot starve.
				if _, bad := p.Model().PathBlockedFinal(e.Src, e.Dst); !bad {
					complain("rank %d observed a link failure on feasible path %d→%d", r, e.Src, e.Dst)
				}
				p.Revoke()
			case *mpirt.PartitionError:
				if _, bad := p.Model().PathBlockedFinal(e.Src, e.Dst); !bad {
					complain("rank %d observed a partition on feasible path %d→%d", r, e.Src, e.Dst)
				}
				p.Revoke()
			case *mpirt.CommRevokedError:
				// A peer revoked after observing the fault first.
			default:
				panic(rec)
			}
		}()
		op.RunV(p, sbuf, counts, rbuf)
	})
	if err != nil {
		return nil, fmt.Errorf("raw link-fault run aborted: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		return nil, fmt.Errorf("%s", violations[0])
	}
	return rep, nil
}
