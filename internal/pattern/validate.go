package pattern

import (
	"fmt"
	"slices"

	"nbrallgather/internal/bitset"
)

// Validate symbolically replays the pattern and checks the invariants
// that make the collective correct, without running the mpirt runtime:
//
//  1. step consistency — if a's step t names agent g in the opposite
//     half, then g's step t names origin a, and g's RecvSources equal
//     a's buffer at send time;
//  2. data availability — a rank never ships or finally delivers a
//     source whose payload its buffer does not contain;
//  3. edge coverage — every edge u→v of the graph is satisfied exactly
//     once, by a step self-copy, a final self-copy, or a final send
//     whose receiver lists the sender in FinalRecvs;
//  4. buffer order — BufSources equals the replayed buffer.
//
// It returns nil if the pattern is sound.
func (p *Pattern) Validate() error {
	g := p.Graph
	n := g.N()
	if len(p.Plans) != n {
		return fmt.Errorf("pattern: %d plans for %d ranks", len(p.Plans), n)
	}

	// covered[v] marks incoming sources of v already satisfied.
	covered := make([]*bitset.Set, n)
	for v := range covered {
		covered[v] = bitset.New(n)
	}
	cover := func(u, v int, how string) error {
		if !g.HasEdge(u, v) {
			return fmt.Errorf("pattern: rank %d delivered source %d via %s but edge %d→%d does not exist", v, u, how, u, v)
		}
		if covered[v].Has(u) {
			return fmt.Errorf("pattern: edge %d→%d delivered twice (last via %s)", u, v, how)
		}
		covered[v].Add(u)
		return nil
	}

	// Replay buffers step by step across all ranks.
	bufs := make([][]int32, n)
	has := make([]*bitset.Set, n)
	for r := 0; r < n; r++ {
		bufs[r] = []int32{int32(r)}
		has[r] = bitset.New(n)
		has[r].Add(r)
	}
	maxSteps := 0
	for r := range p.Plans {
		if p.Plans[r].Rank != r {
			return fmt.Errorf("pattern: plan %d has Rank %d", r, p.Plans[r].Rank)
		}
		maxSteps = max(maxSteps, len(p.Plans[r].Steps))
	}
	for t := 0; t < maxSteps; t++ {
		ships := make(map[int32][]int32) // receiver → shipped sources
		for r := 0; r < n; r++ {
			plan := &p.Plans[r]
			if t >= len(plan.Steps) {
				continue
			}
			s := plan.Steps[t]
			_, _, h2lo, h2hi := Level(n, t, r)
			if s.Agent != NoRank {
				if int(s.Agent) < h2lo || int(s.Agent) >= h2hi {
					return fmt.Errorf("pattern: rank %d step %d agent %d outside h2 [%d,%d)", r, t, s.Agent, h2lo, h2hi)
				}
				ag := &p.Plans[s.Agent]
				if t >= len(ag.Steps) || int(ag.Steps[t].Origin) != r {
					return fmt.Errorf("pattern: rank %d step %d agent %d does not list it as origin", r, t, s.Agent)
				}
				if int(s.SendCount) != len(bufs[r]) {
					return fmt.Errorf("pattern: rank %d step %d SendCount %d != buffer length %d", r, t, s.SendCount, len(bufs[r]))
				}
				if _, dup := ships[s.Agent]; dup {
					return fmt.Errorf("pattern: rank %d step %d agent %d already receives another origin", r, t, s.Agent)
				}
				ships[s.Agent] = slices.Clone(bufs[r])
			}
			if s.Origin != NoRank {
				if int(s.Origin) < h2lo || int(s.Origin) >= h2hi {
					return fmt.Errorf("pattern: rank %d step %d origin %d outside h2", r, t, s.Origin)
				}
				op := &p.Plans[s.Origin]
				if t >= len(op.Steps) || int(op.Steps[t].Agent) != r {
					return fmt.Errorf("pattern: rank %d step %d origin %d does not list it as agent", r, t, s.Origin)
				}
			}
		}
		// Apply arrivals.
		for r := 0; r < n; r++ {
			plan := &p.Plans[r]
			if t >= len(plan.Steps) {
				continue
			}
			s := plan.Steps[t]
			if s.Origin == NoRank {
				if s.Recv.Len != 0 {
					return fmt.Errorf("pattern: rank %d step %d has RecvSources without origin", r, t)
				}
				continue
			}
			sources, ok := ships[int32(r)]
			if !ok {
				return fmt.Errorf("pattern: rank %d step %d expects origin %d but no shipment", r, t, s.Origin)
			}
			if !slices.Equal(sources, plan.Sources(s.Recv)) {
				return fmt.Errorf("pattern: rank %d step %d RecvSources %v != origin buffer %v", r, t, plan.Sources(s.Recv), sources)
			}
			for _, src := range sources {
				if !has[r].Has(int(src)) {
					has[r].Add(int(src))
					bufs[r] = append(bufs[r], src)
				}
			}
			for _, src := range plan.Sources(s.Copies) {
				if !has[r].Has(int(src)) {
					return fmt.Errorf("pattern: rank %d step %d self-copy of %d not in buffer", r, t, src)
				}
				if err := cover(int(src), r, fmt.Sprintf("step-%d self-copy", t)); err != nil {
					return err
				}
			}
		}
	}

	// Final phase.
	finalSenders := make([]*bitset.Set, n)
	for v := range finalSenders {
		finalSenders[v] = bitset.New(n)
	}
	for r := 0; r < n; r++ {
		plan := &p.Plans[r]
		if !slices.Equal(plan.Sources(plan.BufSources), bufs[r]) {
			return fmt.Errorf("pattern: rank %d BufSources %v != replayed buffer %v", r, plan.Sources(plan.BufSources), bufs[r])
		}
		for _, src := range plan.Sources(plan.FinalSelfCopies) {
			if !has[r].Has(int(src)) {
				return fmt.Errorf("pattern: rank %d final self-copy of %d not in buffer", r, src)
			}
			if err := cover(int(src), r, "final self-copy"); err != nil {
				return err
			}
		}
		prevDst := -1
		for _, fs := range plan.FinalSends {
			dst := int(fs.Dst)
			if dst == r {
				return fmt.Errorf("pattern: rank %d final send to itself", r)
			}
			if dst <= prevDst {
				return fmt.Errorf("pattern: rank %d final sends not sorted by destination", r)
			}
			prevDst = dst
			if fs.Sources.Len == 0 {
				return fmt.Errorf("pattern: rank %d empty final send to %d", r, dst)
			}
			for _, src := range plan.Sources(fs.Sources) {
				if !has[r].Has(int(src)) {
					return fmt.Errorf("pattern: rank %d final send to %d includes source %d not in buffer", r, dst, src)
				}
				if err := cover(int(src), dst, fmt.Sprintf("final send from %d", r)); err != nil {
					return err
				}
			}
			finalSenders[dst].Add(r)
		}
	}
	for v := 0; v < n; v++ {
		want := finalSenders[v].Elems(nil)
		got := p.Plans[v].Sources(p.Plans[v].FinalRecvs)
		if !slices.EqualFunc(want, got, func(a int, b int32) bool { return a == int(b) }) {
			return fmt.Errorf("pattern: rank %d FinalRecvs %v != actual final senders %v", v, got, want)
		}
	}

	// Every edge covered.
	for v := 0; v < n; v++ {
		for _, u := range g.In(v) {
			if !covered[v].Has(u) {
				return fmt.Errorf("pattern: edge %d→%d never delivered", u, v)
			}
		}
	}
	return nil
}
