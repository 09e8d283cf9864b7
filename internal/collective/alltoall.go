package collective

import (
	"fmt"
	"slices"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Neighborhood alltoall — the paper's named future work ("we intend
// to … extend our approach to alltoall and other variants"). Unlike
// allgather, every rank sends a distinct payload to each outgoing
// neighbor (MPI_Neighbor_alltoall), so nothing can be deduplicated —
// but the topology-aware relay still applies: the Distance Halving
// pattern's delivery-responsibility tracking is per edge (src→dst), so
// the very same pattern routes alltoall segments through agents,
// combining many small distant sends into one message per halving step.
// Both forms are emitters over the plan IR in its alltoall layout
// (plan.go): a block is one edge's segment. Two differences from the
// allgather data path:
//
//   - a step message carries only the segments whose responsibility
//     moves (the descriptor D's content), not the whole accumulated
//     buffer — there is no payload replication;
//   - the remainder phase's FinalSends/FinalRecvs/SelfCopies sets apply
//     verbatim, with per-edge payloads substituted for source payloads.

// AOp is a neighborhood alltoall implementation. For RunA, sbuf holds
// outdegree·m bytes: segment i is addressed to Out(rank)[i]. rbuf
// receives indegree·m bytes: segment j comes from In(rank)[j]. RunAV
// is the alltoallv form: sbuf concatenates the segments addressed to
// Out(rank) in ascending neighbor order with per-edge sizes; rbuf
// receives In(rank)'s segments likewise. In phantom mode the buffers
// are ignored.
type AOp interface {
	Name() string
	Graph() *vgraph.Graph
	RunA(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte)
	RunAV(p mpirt.Endpoint, sbuf []byte, counts CountFunc, rbuf []byte)
}

// CountFunc gives the payload size in bytes of the alltoallv segment
// src → dst. It models MPI_Neighbor_alltoallv's sendcounts/recvcounts
// agreement: both endpoints know the size of their shared segment. It
// must be deterministic and non-negative for every edge of the graph.
type CountFunc func(src, dst int) int

// UniformCount returns the constant-size CountFunc of plain alltoall.
func UniformCount(m int) CountFunc {
	return func(int, int) int { return m }
}

// Alltoall is the alltoall form of a row of the algorithm table bound
// to a virtual topology.
type Alltoall struct{ bound }

// RunA implements AOp: RunAV over memoised uniform per-edge counts.
func (a *Alltoall) RunA(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	checkUniform(m)
	a.plan.run(p, sbuf, a.uniform(m), rbuf)
}

// RunAV implements AOp.
func (a *Alltoall) RunAV(p mpirt.Endpoint, sbuf []byte, counts CountFunc, rbuf []byte) {
	a.plan.run(p, sbuf, EdgeCounts(a.plan.Graph, counts), rbuf)
}

// EdgeCounts materialises and validates a CountFunc over g's edges in
// alltoall block order: the counts an alltoall plan runs under.
func EdgeCounts(g *vgraph.Graph, counts CountFunc) []int {
	if counts == nil {
		panic("collective: nil CountFunc")
	}
	flat := make([]int, 0, g.Edges())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			c := counts(u, v)
			if c < 0 {
				panic(fmt.Sprintf("collective: negative count for edge %d→%d", u, v))
			}
			flat = append(flat, c)
		}
	}
	return flat
}

// NewAlltoall binds the named algorithm's alltoall form (see
// HasAlltoall) to graph g; a zero prm field selects the
// conformance-suite default for cluster c.
func NewAlltoall(name string, g *vgraph.Graph, c topology.Cluster, prm PlanParams) (*Alltoall, error) {
	a, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if a.alltoall == nil {
		return nil, fmt.Errorf("collective: algorithm %q has no alltoall", name)
	}
	q := request(g, c, prm, nil)
	pl, pat, err := a.alltoall(q)
	if err != nil {
		return nil, err
	}
	return &Alltoall{bound{name: a.title(q) + "-alltoall", plan: pl, pat: pat}}, nil
}

// NewNaiveAlltoall binds the direct point-to-point neighborhood
// alltoall (the mainstream MPI implementations' behaviour) to a graph.
func NewNaiveAlltoall(g *vgraph.Graph) *Alltoall {
	return &Alltoall{bound{name: "naive-alltoall", plan: emitNaiveAlltoall(g)}}
}

// NewDistanceHalvingAlltoall builds the pattern centrally (stop
// threshold l) and binds the alltoall that relays through its agents.
func NewDistanceHalvingAlltoall(g *vgraph.Graph, l int) (*Alltoall, error) {
	return NewAlltoall("dh", g, topology.Cluster{}, PlanParams{L: l})
}

// emitDHAlltoall replays the pattern's per-edge responsibility movement
// once, statically. A rank starts out holding its own segments; at each
// halving step the held segments destined into the opposite half travel
// to the agent — one Packed message in (src, dst) order, which is block
// order, sent even when empty — and what arrives from the origin is a
// forward, whose segments addressed to the receiver are copied out after
// the wait. The remainder phase is the pattern's FinalSends / FinalRecvs
// / FinalSelfCopies verbatim, in emitDH's shape.
func emitDHAlltoall(pat *pattern.Pattern) *Plan {
	const final = Deliver | SelfDescribing | Packed
	g := pat.Graph
	n := g.N()
	b := NewAlltoallPlanBuilder(g, 0, 0)
	pl := b.pl
	// moved[r][t] is what rank r ships to its agent at step t, mine[r][t]
	// what step t's arrival brings for r itself, held[r] what r still
	// holds when the halving ends: each ascending, as segments are walked
	// in block order. One that reaches a new holder at step t is that
	// rank's to move from step t+1 on.
	moved, mine, held := make([][][]int, n), make([][][]int, n), make([][]int, n)
	for r := range moved {
		moved[r], mine[r] = make([][]int, len(pat.Plans[r].Steps)), make([][]int, len(pat.Plans[r].Steps))
	}
	for blk := 0; blk < pl.NumBlocks(); blk++ {
		h, dst := pl.Edge(int32(blk))
		for t := 0; h != dst && t < len(pat.Plans[h].Steps); t++ {
			_, _, h2lo, h2hi := pattern.Level(n, t, h)
			if st := &pat.Plans[h].Steps[t]; st.Agent != pattern.NoRank && dst >= h2lo && dst < h2hi {
				moved[h][t] = append(moved[h][t], blk)
				if h = int(st.Agent); h == dst {
					mine[h][t] = append(mine[h][t], blk)
				}
			}
		}
		if h != dst {
			held[h] = append(held[h], blk)
		}
	}
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		for t := range plan.Steps {
			st := &plan.Steps[t]
			recv := b.Len()
			if st.Origin != pattern.NoRank {
				b.Recv(int(st.Origin), tags.A2AStep+t, Packed, moved[st.Origin][t]...)
			}
			posted := b.Len()
			if st.Agent != pattern.NoRank {
				b.Send(int(st.Agent), tags.A2AStep+t, Packed, moved[r][t]...)
			}
			b.Wait(recv, posted)
			for _, blk := range mine[r][t] {
				b.Copy(blk, Deliver)
			}
		}
		lo := b.Len()
		for _, sender := range plan.Sources(plan.FinalRecvs) {
			b.Recv(int(sender), tags.A2AFinal, final)
		}
		hi := b.Len()
		var used []int // what the remainder phase delivers: exactly what is still held
		for _, fs := range plan.FinalSends {
			first := len(used)
			for _, src := range plan.Sources(fs.Sources) {
				used = append(used, pl.InBlock(int(src), int(fs.Dst)))
			}
			b.Send(int(fs.Dst), tags.A2AFinal, final, used[first:]...)
		}
		for _, src := range plan.Sources(plan.FinalSelfCopies) {
			used = append(used, pl.InBlock(int(src), r))
			b.Copy(used[len(used)-1], Deliver)
		}
		if slices.Sort(used); !slices.Equal(used, held[r]) {
			panic(fmt.Sprintf("collective: rank %d holds alltoall segments %v after the halving phase, its remainder phase delivers %v", r, held[r], used))
		}
		b.Wait(lo, hi)
		b.EndRank()
	}
	return b.Plan()
}
