package conformance

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
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

// gatherStepper is caseBody's CollAllgather rank body as an
// mpirt.Stepper: the pass is begun once and stepped by the event loop,
// and the result checked against the same ground truth.
type gatherStepper struct {
	c     Case
	op    collective.Op
	ps    collective.Pass
	rbuf  []byte
	begun bool
}

func (s *gatherStepper) Step(p *mpirt.Proc) bool {
	r := p.Rank()
	ep := s.c.on(p)
	if !s.begun {
		sbuf := make([]byte, s.c.M)
		fillRank(sbuf, r)
		s.rbuf = make([]byte, s.c.Graph.InDegree(r)*s.c.M)
		s.op.Begin(&s.ps, ep, sbuf, s.c.M, s.rbuf)
		s.begun = true
	}
	if !s.ps.Step(ep) {
		return false
	}
	checkBuf("stepped allgather rbuf", r, s.rbuf, expectedGatherv(s.c.Graph, r, slices.Repeat([]int{s.c.M}, s.c.Graph.N())))
	return true
}

// sameRun compares two event-engine runs of one program that may differ
// only in how control or messages travel — coroutine or stepped ranks,
// slot hints or none: outcome and report must be identical (host wall
// time and sync.Pool luck aside), they are one simulation.
func sameRun(what string, want, got *mpirt.Report, errW, errG error) error {
	if errW != nil || errG != nil {
		if errW == nil || errG == nil || errW.Error() != errG.Error() {
			return fmt.Errorf("%s: outcome diverges: %v, reference %v", what, errG, errW)
		}
		return nil
	}
	for _, rep := range []*mpirt.Report{want, got} {
		rep.Wall, rep.PoolHits, rep.PoolMisses = 0, 0, 0
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: report diverges:\ngot       %+v\nreference %+v", what, got, want)
	}
	return nil
}

// steppedEqual runs an allgather case on the event engine as the
// coroutine body — the reference — then stepped, and both again with
// every slot hint stripped, and returns any difference in outcome or in
// the report.
func steppedEqual(c Case) error {
	op, _, err := buildOp(c)
	if err != nil {
		return nil // rejected input: Diff has reported it the same way
	}
	want, errW := c.Run(mpirt.EngineEvent, 0, nil)
	stepped := func(c Case) (*mpirt.Report, error) {
		return mpirt.RunSteppers(mpirt.Config{Cluster: c.Cluster, Engine: mpirt.EngineEvent},
			func(*mpirt.Proc) mpirt.Stepper { return &gatherStepper{c: c, op: op} })
	}
	got, errG := stepped(c)
	if err := sameRun("stepped", want, got, errW, errG); err != nil {
		return err
	}
	c.endpoint = stripHints
	got, errG = c.Run(mpirt.EngineEvent, 0, nil)
	if err := sameRun("unhinted", want, got, errW, errG); err != nil {
		return err
	}
	got, errG = stepped(c)
	return sameRun("stepped, unhinted", want, got, errW, errG)
}

// fuzzCheck picks the oracle a fuzz input's scheduling mode selects:
// the cross-engine Diff for plain scheduling, the replay contract for
// the two chaos mixes.
func fuzzCheck(mode uint8) Check {
	switch mode % 3 {
	case 1:
		return replayExact(mpirt.ScheduleOnly)
	case 2:
		return replayExact(mpirt.DefaultChaos)
	}
	return Diff
}

// FuzzEngineDivergence derives a small cluster, a random neighborhood
// graph, an algorithm × collective pair, a scheduling mode, and an
// optional kill from the fuzz input and fails on any divergence: under
// plain scheduling, one engine passing where the other fails, unequal
// deadlock cycles, or unequal traffic censuses on deterministic
// programs; for a plain allgather, a stepped rank body, or one whose slot
// hints are stripped, whose event-engine report is not the coroutine
// body's; under chaos, a seed whose outcome, decision schedule or
// virtual time differs between two recordings or under forced replay.
// Inputs that are rejected or fail identically every time are
// consistent by definition and are not divergences. Seeds run in the
// normal suite; `make fuzz` explores further.
func FuzzEngineDivergence(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(2), uint8(3), uint8(128), uint8(0), uint8(2), uint8(0), int64(7))
	f.Add(uint8(3), uint8(2), uint8(1), uint8(9), uint8(200), uint8(2), uint8(1), uint8(0), int64(1))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(5), uint8(90), uint8(6), uint8(0), uint8(0), int64(0))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(1), uint8(255), uint8(4), uint8(2), uint8(3), int64(42))
	f.Add(uint8(3), uint8(1), uint8(3), uint8(7), uint8(60), uint8(1), uint8(1), uint8(5), int64(13))

	combos := []struct{ algo, coll string }{
		{"naive", CollAllgather}, {"cn", CollAllgather}, {"dh", CollAllgather},
		{"leader", CollAllgather}, {"naive", CollAllgatherv}, {"dh", CollAllgatherv},
		{"naive", CollAlltoall}, {"dh", CollAlltoallv}, {"dh", CollPattern},
	}

	f.Fuzz(func(t *testing.T, nodes, socks, rps, gseed, pb, combo, mode, kill uint8, seed int64) {
		cluster := topology.Cluster{
			Nodes:          1 + int(nodes)%3,
			SocketsPerNode: 1 + int(socks)%2,
			RanksPerSocket: 1 + int(rps)%3,
		}
		if cluster.Nodes > 1 {
			cluster.NodesPerGroup = 1 + int(gseed)%cluster.Nodes
		}
		n := cluster.Ranks()
		if n < 2 {
			return
		}
		g, err := vgraph.ErdosRenyi(n, 0.15+0.8*float64(pb)/255, 1+int64(gseed))
		if err != nil {
			return
		}
		co := combos[int(combo)%len(combos)]
		c := Case{Name: "fuzz", Cluster: cluster, Graph: g, Algo: co.algo, Coll: co.coll, M: 7}

		var r Runner = c
		if kill != 0 {
			r = FaultCase{Name: "fuzz", Base: c, Kind: KindMid, Recover: kill%2 == 0,
				Kills: []mpirt.Kill{{Rank: int(kill) % n, AfterOps: int(kill) / 16}}}
		}
		if err := fuzzCheck(mode)(r, seed); err != nil && !errors.Is(err, errBothFailed) && !errors.Is(err, errSameFailure) {
			t.Fatalf("mode %d kill %d seed %d: %v", mode%3, kill, seed, err)
		}
		if kill == 0 && co.coll == CollAllgather {
			if err := steppedEqual(c); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzFaultDivergence explores the fault matrix: a fuzz input selects
// a case (fail-stop cases first, then link-fault ones), a seed (which
// jitters crash triggers and mid-schedule fault times), and a
// scheduling mode, and any divergence — split outcomes across the
// engines under plain scheduling, unequal schedules, virtual times or
// detection totals between two chaos recordings of a seed — fails.
// Per-run validity (all-or-nothing recovery, identical partition
// verdicts, correct buffers, typed raw errors) is checked inside each
// run by the fault runners.
func FuzzFaultDivergence(f *testing.F) {
	f.Add(uint8(1), uint8(0), int64(2))
	f.Add(uint8(15), uint8(2), int64(6))
	f.Add(uint8(40), uint8(1), int64(9))
	f.Add(uint8(72), uint8(0), int64(1))
	f.Add(uint8(89), uint8(1), int64(3))
	f.Add(uint8(105), uint8(2), int64(7))
	f.Add(uint8(123), uint8(2), int64(42))
	f.Add(uint8(136), uint8(1), int64(13))
	// A negative seed once jittered linkfault/naive/nicdown/mid's fault
	// time to -1 µs, which the fabric rejects on both engines.
	f.Add(uint8(73), uint8(0), int64(-3))

	cases, err := FaultMatrix()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ci, mode uint8, seed int64) {
		c := cases[int(ci)%len(cases)]
		if err := fuzzCheck(mode)(c, seed); err != nil {
			t.Fatalf("%s seed=%d mode=%d: %v", c.Name, seed, mode%3, err)
		}
	})
}
