// Fail-stop conformance: every self-healing allgather algorithm is run
// under injected permanent rank crashes — before the collective, in the
// middle of the halving schedule, on an elected distance-halving agent,
// on a node leader, and as a multi-crash with a second death timed to
// land during recovery — across seeded adversarial schedules. Recovered
// runs must leave every survivor with bitwise-correct buffers for the
// survivor-projected graph; raw (non-recovering) runs must either
// complete cleanly or fail fast with a typed error naming a dead rank,
// never hang. Chaos failures replay bit-exactly from (case, seed) via
// nbr-chaos.
package conformance

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/vgraph"
)

// Fail-stop case kinds: where the injected crashes land.
const (
	KindPre    = "pre"    // crash before the collective's first operation
	KindMid    = "mid"    // crash mid-schedule
	KindAgent  = "agent"  // crash an elected distance-halving agent
	KindLeader = "leader" // crash a node leader
	KindMulti  = "multi"  // one crash up front, a second during recovery
	KindRaw    = "raw"    // mid-schedule crash with no recovery wrapper
)

// FailStopCase is one cell of the fail-stop matrix.
type FailStopCase struct {
	Name string
	Base Case // cluster, graph, algorithm and payload size
	Kind string
	// Recover selects the self-healing path (RunFTV). When false the
	// raw collective runs and the case asserts the error surface
	// instead of recovery.
	Recover bool
}

// CaseName returns the case's name in the fail-stop family.
func (c FailStopCase) CaseName() string { return c.Name }

// TrafficComparable: how much traffic flows before peers observe a
// death depends on host scheduling.
func (c FailStopCase) TrafficComparable() bool { return false }

// FailStopMatrix returns the deterministic fail-stop case family:
// every algorithm crosses the crash kinds it is eligible for (agent
// kills need distance-halving, leader kills the leader-based
// hierarchy) over two cluster shapes and two random graph densities.
// Like Matrix, it depends on nothing but the source.
func FailStopMatrix() ([]FailStopCase, error) {
	base, err := Matrix()
	if err != nil {
		return nil, err
	}
	// Every algorithm crosses the four generic kinds; these name the
	// role-specific crash an algorithm adds, after KindMid.
	roleKind := map[string]string{"dh": KindAgent, "leader": KindLeader}
	var cases []FailStopCase
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
			cases = append(cases, FailStopCase{
				Name:    fmt.Sprintf("failstop/%s/%s", b.Name, k),
				Base:    b,
				Kind:    k,
				Recover: k != KindRaw,
			})
		}
	}
	return cases, nil
}

// FailStopKills derives the case's deterministic kill schedule. The
// operation-count trigger is jittered by the seed so a sweep lands the
// crash at different points of the message schedule while any single
// (case, seed) pair stays exactly reproducible.
func FailStopKills(c FailStopCase, seed int64) []mpirt.Kill {
	n := c.Base.Graph.N()
	jitter := int(seed % 4)
	switch c.Kind {
	case KindPre:
		return []mpirt.Kill{{Rank: n / 3}}
	case KindMid:
		return []mpirt.Kill{{Rank: n / 2, AfterOps: 5 + jitter}}
	case KindAgent:
		return []mpirt.Kill{{Rank: firstAgent(c.Base), AfterOps: 1 + jitter}}
	case KindLeader:
		// Rank 0 is a leader of node 0 under the identity placement.
		return []mpirt.Kill{{Rank: 0, AfterOps: jitter}}
	case KindMulti:
		return []mpirt.Kill{
			{Rank: 1},
			{Rank: n - 2, AfterOps: 10 + jitter},
		}
	case KindRaw:
		return []mpirt.Kill{{Rank: n / 2, AfterOps: 2 + jitter}}
	default:
		panic(fmt.Sprintf("conformance: unknown fail-stop kind %q", c.Kind))
	}
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
				return st.Agent
			}
		}
	}
	return 1
}

// Run executes the case (see Runner) with the kill schedule seed
// derives.
func (c FailStopCase) Run(eng mpirt.Engine, seed int64, chaos *mpirt.Chaos) (*mpirt.Report, error) {
	return c.RunKills(eng, chaos, FailStopKills(c, seed))
}

// RunKills is Run with an explicit kill schedule replacing the
// seed-derived one (ad-hoc injection from nbr-chaos -kill).
func (c FailStopCase) RunKills(eng mpirt.Engine, chaos *mpirt.Chaos, kills []mpirt.Kill) (*mpirt.Report, error) {
	op, _, err := buildVOp(c.Base)
	if err != nil {
		return nil, err
	}
	cfg := mpirt.Config{
		Cluster: c.Base.Cluster,
		Ranks:   c.Base.Graph.N(),
		Chaos:   chaos,
		Kills:   kills,
		Engine:  eng,
	}
	if c.Recover {
		return runFailStopFT(c, cfg, op, kills)
	}
	return runFailStopRaw(c, cfg, op, kills)
}

// runFailStopFT drives the self-healing path and validates the
// recovery outcome.
func runFailStopFT(c FailStopCase, cfg mpirt.Config, op collective.VOp, kills []mpirt.Kill) (*mpirt.Report, error) {
	g := c.Base.Graph
	n := g.N()
	counts := ragged(n, c.Base.M)
	results := make([]*collective.FTResult, n)
	var mu sync.Mutex
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		r := p.Rank()
		sbuf := make([]byte, counts[r])
		fillRank(sbuf, r)
		rbuf := make([]byte, len(expectedGatherv(g, r, counts)))
		res, ferr := collective.RunFTV(p, op, sbuf, counts, rbuf)
		if ferr != nil {
			panic(fmt.Sprintf("conformance: rank %d fail-stop recovery: %v", r, ferr))
		}
		mu.Lock()
		results[r] = res
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return rep, checkFailStopResults(g, counts, results, kills)
}

// checkFailStopResults validates the per-rank outcomes of a recovered
// run: consistent agreement across ranks and bitwise-correct buffers
// for whichever graph (full or survivor-projected) the run completed
// on.
func checkFailStopResults(g *vgraph.Graph, counts []int, results []*collective.FTResult, kills []mpirt.Kill) error {
	killed := map[int]bool{}
	for _, k := range kills {
		killed[k.Rank] = true
	}
	var ref *collective.FTResult
	for r, res := range results {
		if res == nil {
			if !killed[r] {
				return fmt.Errorf("non-killed rank %d has no result", r)
			}
			continue
		}
		if ref == nil {
			ref = res
			for _, d := range res.DeadOld {
				if !killed[d] {
					return fmt.Errorf("reports non-killed rank %d dead", d)
				}
				if res.Comm.Contains(d) {
					return fmt.Errorf("dead rank %d still a member of %v", d, res.Comm)
				}
			}
		} else if res.Recovered != ref.Recovered || res.Rounds != ref.Rounds ||
			fmt.Sprint(res.AliveOld) != fmt.Sprint(ref.AliveOld) || res.Repair != ref.Repair {
			return fmt.Errorf("ranks disagree on outcome: rank %d got (%v, %d, %v, %q), want (%v, %d, %v, %q)",
				r, res.Recovered, res.Rounds, res.AliveOld, res.Repair,
				ref.Recovered, ref.Rounds, ref.AliveOld, ref.Repair)
		}
		if !res.Recovered {
			// The collective completed on the full communicator (the
			// victim's payload landed before it died, or the kill never
			// fired); buffers must cover the full graph.
			if err := diffBuf(res.RBuf, expectedGatherv(g, r, counts)); err != nil {
				return fmt.Errorf("rank %d full-graph buffer: %w", r, err)
			}
			continue
		}
		nr := res.Comm.NewRank(r)
		if nr < 0 {
			return fmt.Errorf("returning rank %d missing from %v", r, res.Comm)
		}
		var want []byte
		for _, u := range res.Graph.In(nr) {
			seg := make([]byte, res.Counts[u])
			fillRank(seg, res.AliveOld[u])
			want = append(want, seg...)
		}
		if err := diffBuf(res.RBuf, want); err != nil {
			return fmt.Errorf("survivor %d projected buffer (dead %v): %w", r, res.DeadOld, err)
		}
	}
	if ref == nil {
		return fmt.Errorf("no rank returned a result")
	}
	return nil
}

// runFailStopRaw drives the raw collective (no recovery wrapper) and
// asserts the ULFM error surface: every rank either completes with a
// correct full-graph buffer or observes a typed failure and revokes —
// the run must never deadlock or abort.
func runFailStopRaw(c FailStopCase, cfg mpirt.Config, op collective.VOp, kills []mpirt.Kill) (*mpirt.Report, error) {
	g := c.Base.Graph
	counts := ragged(g.N(), c.Base.M)
	killed := map[int]bool{}
	for _, k := range kills {
		killed[k.Rank] = true
	}
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
				// Clean completion: the buffer must be fully correct.
				if derr := diffBuf(rbuf, want); derr != nil {
					complain("rank %d completed with wrong buffer: %v", r, derr)
				}
			case *mpirt.RankFailedError:
				// Fail-fast, naming the dead rank; revoke so peers
				// blocked on this rank cannot starve (the ULFM
				// convention the recovery wrapper automates).
				if !killed[e.Rank] {
					complain("rank %d observed failure of non-killed rank %d", r, e.Rank)
				}
				p.Revoke()
			case *mpirt.CommRevokedError:
				// A peer revoked after observing the failure first.
			default:
				panic(rec)
			}
		}()
		op.RunV(p, sbuf, counts, rbuf)
	})
	if err != nil {
		return nil, fmt.Errorf("raw fail-stop run aborted: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		return nil, fmt.Errorf("%s", violations[0])
	}
	return rep, nil
}

// diffBuf is checkBuf's error-returning twin for use outside rank
// bodies.
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
