package collective

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Tests that a plan pass stepped by the event loop (a Pass inside an
// mpirt.Stepper, no coroutine) fails like the same pass on a rank with
// a stack. The passes live in the test so both paths can be asked where
// they stopped.

// passStepper runs one phantom pass of pl per rank.
type passStepper struct {
	pl     *Plan
	counts []int
	ps     *Pass
	begun  bool
}

func (s *passStepper) Step(p *mpirt.Proc) bool {
	if !s.begun {
		s.ps.Reset(s.pl, p, nil, s.counts, nil)
		s.begun = true
	}
	return s.ps.Step(p)
}

// runPass runs one phantom pass of pl on every rank — as a coroutine
// body whose Step parks, or stepped — and returns the passes.
func runPass(cfg mpirt.Config, pl *Plan, m int, stepped bool) ([]Pass, *mpirt.Report, error) {
	cfg.Phantom, cfg.Engine = true, mpirt.EngineEvent
	passes := make([]Pass, pl.Graph.N())
	counts := uniformCounts(pl.NumBlocks(), m)
	if stepped {
		rep, err := mpirt.RunSteppers(cfg, func(p *mpirt.Proc) mpirt.Stepper {
			return &passStepper{pl: pl, counts: counts, ps: &passes[p.Rank()]}
		})
		return passes, rep, err
	}
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		ps := &passes[p.Rank()]
		ps.Reset(pl, p, nil, counts, nil)
		if !ps.Step(p) {
			panic("a pass suspended on a rank that has a stack")
		}
	})
	return passes, rep, err
}

// ringPlan is a hand-built plan over the 3-cycle r+1 → r in which every
// rank waits for its in-neighbour before sending: the receive is never
// sent. wildcard posts it on AnySource.
func ringPlan(t *testing.T, wildcard bool) *Plan {
	t.Helper()
	g, err := vgraph.FromOutLists(3, [][]int{{2}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewPlanBuilder(g, 0, 0)
	for r := 0; r < 3; r++ {
		src := (r + 1) % 3
		if wildcard {
			b.Recv(AnySource, tags.Naive, Deliver, src)
		} else {
			b.Recv(src, tags.Naive, Deliver, src)
		}
		b.Wait(0, 1)
		b.Send((r+2)%3, tags.Naive, Deliver, r)
		b.EndRank()
	}
	return b.Plan()
}

// TestSteppedPassDeadlock: a pass whose receive is never sent reports
// the identical deadlock stepped and on a coroutine — the canonical
// cycle, its virtual time and the blocked summary, proven by the cycle
// chase when the last receive is posted; the AnySource variant has no
// cycle to chase and is proven by the event queue running empty.
func TestSteppedPassDeadlock(t *testing.T) {
	cfg := mpirt.Config{Cluster: topology.Cluster{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 3, NodesPerGroup: 1}}
	t.Run("cycle", func(t *testing.T) {
		var d [2]*mpirt.DeadlockError
		for i, stepped := range []bool{false, true} {
			_, _, err := runPass(cfg, ringPlan(t, false), 64, stepped)
			if !errors.As(err, &d[i]) {
				t.Fatalf("stepped=%v: want a *DeadlockError, got %v", stepped, err)
			}
		}
		if !d[0].SameCycle(d[1]) || d[0].VT != d[1].VT || d[0].Summary != d[1].Summary || d[0].Error() != d[1].Error() {
			t.Fatalf("deadlock differs:\ncoroutine %v\nstepped   %v", d[0], d[1])
		}
		if len(d[1].Cycle) != 3 {
			t.Fatalf("cycle %v, want the 3-ring", d[1].Cycle)
		}
	})
	t.Run("anysource", func(t *testing.T) {
		var msg [2]string
		for i, stepped := range []bool{false, true} {
			_, _, err := runPass(cfg, ringPlan(t, true), 64, stepped)
			if !errors.Is(err, mpirt.ErrDeadlock) {
				t.Fatalf("stepped=%v: want a deadlock, got %v", stepped, err)
			}
			msg[i] = err.Error()
		}
		if msg[0] != msg[1] {
			t.Fatalf("deadlock differs:\ncoroutine %s\nstepped   %s", msg[0], msg[1])
		}
	})
}

// TestSteppedPassKill: a fail-stop crash scheduled by operation count
// lands inside a DH pass. A receive that suspends and is resumed is one
// operation, so for every k the victim stops at the same op — and the
// same receive inside its wait — stepped as on a coroutine, and the
// survivor that observes it first fails the run with the same error.
func TestSteppedPassKill(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.4, 9)
	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	died := 0
	for k := 0; k < 40; k++ {
		cfg := mpirt.Config{Cluster: c, Kills: []mpirt.Kill{{Rank: victim, AfterOps: k}}}
		var where [2]string
		for i, stepped := range []bool{false, true} {
			passes, rep, err := runPass(cfg, dh.Plan(), 64, stepped)
			ps := &passes[victim]
			where[i] = fmt.Sprintf("op %d wait %d of %d, err %v", ps.i, ps.w, len(ps.ops), err)
			if i == 1 && (err != nil || len(rep.DeadRanks) > 0) {
				died++
			}
		}
		if where[0] != where[1] {
			t.Fatalf("AfterOps %d: coroutine victim at %s, stepped at %s", k, where[0], where[1])
		}
	}
	if died < 10 {
		t.Fatalf("only %d of 40 kill points landed inside the pass", died)
	}
}

// TestPlansBackToBack runs different plans one after the other in one
// rank body, no barrier between them: a rank that has moved on hints its
// next plan's slot numbers into mailboxes whose owners still wait, in
// the previous plan, for other senders' messages under the same numbers
// (cn2 and cn4 even share tags). Slot residents follow one numbering at
// a time and everything else goes through the lists, so every pass, on
// both engines, must still gather exactly its in-neighbours' blocks.
func TestPlansBackToBack(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	const m = 8
	for seed := int64(1); seed <= 4; seed++ {
		g := erGraph(t, c.Ranks(), 0.4, seed)
		ops := allOps(t, g, c)
		ops = append(ops, ops...) // every plan comes round a second time
		for _, eng := range mpirt.Engines() {
			_, err := mpirt.Run(mpirt.Config{Cluster: c, Engine: eng}, func(p *mpirt.Proc) {
				r := p.Rank()
				sbuf := make([]byte, m)
				fillPattern(sbuf, r)
				want := expectedRbuf(g, r, m)
				for i, op := range ops {
					rbuf := make([]byte, len(want))
					op.Run(p, sbuf, m, rbuf)
					if !bytes.Equal(rbuf, want) {
						panic(fmt.Sprintf("pass %d (%s): rank %d receive buffer mismatch", i, op.Name(), r))
					}
				}
			})
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, eng, err)
			}
		}
	}
}
