package collective

import (
	"fmt"
	"slices"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/vgraph"
)

// Fail-stop recovery for neighborhood allgather, following the ULFM
// recipe: run the collective, and when any rank observes a failure it
// revokes the communicator so every survivor's pending operation
// errors out; survivors agree on the outcome, shrink to a dense
// survivor communicator, project the virtual topology onto the
// survivors, rebuild the algorithm over the projected graph, and
// re-run. The rebuild is algorithm-aware: distance-halving re-runs its
// stable matching over the survivor graph, so a dead elected agent is
// re-negotiated to the next live rank of the opposite half — and a
// step whose opposite half died entirely simply elects no agent and
// falls back to that plan's direct sends; leader-based re-elects each
// node's leaders among its survivors; an algorithm whose pattern
// cannot be rebuilt degrades to naive over the shrunken communicator.

// FTResult reports how a fault-tolerant collective completed.
type FTResult struct {
	// Recovered is false when the original attempt succeeded on the
	// full communicator: RBuf is the caller's rbuf, Comm/Graph are nil.
	Recovered bool
	// Rounds counts recovery attempts (shrink + re-run) performed.
	Rounds int
	// AliveOld / DeadOld partition the original ranks by survival at
	// the final successful round, each in ascending order.
	AliveOld []int
	DeadOld  []int
	// Comm is the survivor communicator; Graph the survivor-projected
	// virtual topology; Counts the projected per-rank counts (indexed
	// by shrunken rank).
	Comm   *mpirt.Comm
	Graph  *vgraph.Graph
	Counts []int
	// RBuf is the receive buffer that holds the survivor-projected
	// result (nil in phantom mode).
	RBuf []byte
	// Repair names the algorithm the final round actually ran — the
	// rebuilt original, or "naive" after degradation.
	Repair string
}

// ftAbsorbable returns rec as an error when it is a typed failure the
// recovery layer may absorb (*RankFailedError, *CommRevokedError,
// *LinkFailedError, *PartitionError). Usage errors, injected deaths
// and ordinary panics stay fatal.
func ftAbsorbable(rec any) error {
	switch rec.(type) {
	case *mpirt.RankFailedError, *mpirt.CommRevokedError, *mpirt.LinkFailedError, *mpirt.PartitionError:
		return rec.(error)
	}
	return nil
}

// attemptFT runs one collective attempt, converting absorbable failure
// panics into an error and re-panicking everything else.
func attemptFT(f func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e := ftAbsorbable(rec); e != nil {
				err = e
				return
			}
			panic(rec)
		}
	}()
	f()
	return nil
}

// RunFTV runs op as a fault-tolerant neighborhood allgatherv: all
// ranks of p's communicator must call it collectively, with the same
// op and counts. On a fault-free run it completes exactly like
// op.RunV (modulo a disjoint tag epoch and a closing agreement round)
// and returns Recovered=false. When ranks die, every survivor returns
// the same FTResult describing the survivor-projected collective it
// completed; the survivor buffers are bitwise-correct for the
// projected graph. The detection, revoke, agreement and re-run costs
// all land on the virtual clocks, so recovery overhead is measurable
// in the Report.
func RunFTV(p *mpirt.Proc, op Op, sbuf []byte, counts []int, rbuf []byte) (*FTResult, error) {
	g := op.Graph()
	if len(counts) != g.N() {
		panic(fmt.Sprintf("collective: got %d counts for %d ranks", len(counts), g.N()))
	}
	epoch := p.FTEpoch()

	// First attempt: the full communicator through an identity view,
	// so even the fault-free path runs in its own tag epoch.
	full := p.Sub(identityComm(p.Size()), tags.FTShift(epoch, 0))
	err := attemptFT(func() { op.RunV(full, sbuf, counts, rbuf) })
	if err != nil {
		p.Revoke()
	}
	if p.Agree(err == nil) {
		return &FTResult{RBuf: rbuf, Repair: op.Name()}, nil
	}

	model := p.Model()
	var lastAlive []int
	for round := 1; round <= p.Size()+1; round++ {
		comm := p.Shrink()
		alive := comm.Ranks()
		g2, perr := g.Project(alive)
		if perr != nil {
			// Deterministic across survivors (same agreed alive set),
			// so every rank fails identically.
			panic(fmt.Sprintf("collective: survivor projection failed: %v", perr))
		}
		// Link-aware repair (linkrepair.go): every decision below reads
		// end-state link health, so all survivors compute it identically.
		if ferr := linkInfeasible(model, g2, alive); ferr != nil {
			// The survivor graph cannot be completed on the wounded
			// fabric; every rank returns this same error.
			return nil, ferr
		}
		// Graceful-degradation floor: a repaired attempt that failed
		// again with the same survivors (no new death) means the rebuilt
		// relay schedule still crosses a wounded resource the avoid set
		// cannot express (e.g. a share group straddling a partition).
		// The direct edges are feasible — fall back to naive over them.
		degraded := model.HasLinkFaults() && slices.Equal(alive, lastAlive)
		lastAlive = alive
		op2 := Op(NewNaive(g2))
		if rb, ok := op.(interface {
			rebuild(*vgraph.Graph, []int, []bool) Op
		}); ok && !degraded {
			op2 = rb.rebuild(g2, alive, linkAvoidSet(model, alive))
		}
		counts2 := make([]int, len(alive))
		for i, o := range alive {
			counts2[i] = counts[o]
		}
		sub := p.Sub(comm, tags.FTShift(epoch, round))
		var rbuf2 []byte
		if !p.Phantom() {
			want := 0
			for _, u := range g2.In(sub.Rank()) {
				want += counts2[u]
			}
			rbuf2 = make([]byte, want)
		}
		err = attemptFT(func() { op2.RunV(sub, sbuf, counts2, rbuf2) })
		if err != nil {
			// Another rank died mid-recovery: revoke and go again.
			p.Revoke()
		}
		if p.Agree(err == nil) {
			var dead []int
			for r, i := 0, 0; r < g.N(); r++ {
				if i < len(alive) && alive[i] == r {
					i++
					continue
				}
				dead = append(dead, r)
			}
			return &FTResult{
				Recovered: true,
				Rounds:    round,
				AliveOld:  alive,
				DeadOld:   dead,
				Comm:      comm,
				Graph:     g2,
				Counts:    counts2,
				RBuf:      rbuf2,
				Repair:    op2.Name(),
			}, nil
		}
	}
	// Each failed round implies at least one death after its shrink
	// snapshot, so the loop cannot run more than Size()+1 times unless
	// the runtime misbehaves.
	return nil, fmt.Errorf("collective: fail-stop recovery did not converge after %d rounds", p.Size()+1)
}

// identityComm is the full communicator as a Comm (used to give the
// first attempt its own tag epoch through the SubProc machinery).
func identityComm(n int) *mpirt.Comm {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return mpirt.NewComm(all, n)
}

// rebuild re-emits the op's table row over the survivor-projected graph
// g2 (alive lists the surviving original ranks, defining shrunken rank
// i ↔ original rank alive[i]) with an avoid set (indexed by shrunken
// rank, nil for none) marking link-impaired survivors the new plan must
// keep out of relay roles. Survivors keep their physical placement, and
// a group cannot outgrow the communicator. Identical recoveries emit
// identical plans. If the row cannot be re-emitted, the collective
// degrades to naive over the shrunken communicator — always
// well-defined.
func (a *Allgather) rebuild(g2 *vgraph.Graph, alive []int, avoid []bool) Op {
	q := planReq{g: g2, c: a.req.c, prm: a.req.prm, place: make([]int, len(alive)), avoid: avoid}
	q.prm.CNGroup = min(q.prm.CNGroup, g2.N())
	q.prm.Leaders = min(q.prm.Leaders, q.c.RanksPerNode())
	for i, o := range alive {
		q.place[i] = o
		if a.req.place != nil {
			q.place[i] = a.req.place[o]
		}
	}
	if op, err := a.algo.bind(q); err == nil {
		return op
	}
	return NewNaive(g2)
}
