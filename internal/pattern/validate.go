package pattern

import (
	"fmt"
	"slices"

	"nbrallgather/internal/bitset"
)

// Validate symbolically replays the pattern and checks the invariants
// that make the collective correct, without running the mpirt runtime:
//
//  1. step consistency — if a's step t names agent g, then g's step t
//     names origin a, the halves are complementary, and g's
//     RecvSources equal a's buffer at send time;
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
	bufs := make([][]int, n)
	has := make([]*bitset.Set, n)
	for r := 0; r < n; r++ {
		bufs[r] = []int{r}
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
		ships := make(map[int][]int) // receiver → shipped sources
		for r := 0; r < n; r++ {
			plan := &p.Plans[r]
			if t >= len(plan.Steps) {
				continue
			}
			s := plan.Steps[t]
			if r < s.H1Lo || r >= s.H1Hi {
				return fmt.Errorf("pattern: rank %d step %d half [%d,%d) excludes itself", r, t, s.H1Lo, s.H1Hi)
			}
			if s.Agent != NoRank {
				if s.Agent < s.H2Lo || s.Agent >= s.H2Hi {
					return fmt.Errorf("pattern: rank %d step %d agent %d outside h2 [%d,%d)", r, t, s.Agent, s.H2Lo, s.H2Hi)
				}
				ag := &p.Plans[s.Agent]
				if t >= len(ag.Steps) || ag.Steps[t].Origin != r {
					return fmt.Errorf("pattern: rank %d step %d agent %d does not list it as origin", r, t, s.Agent)
				}
				if s.SendCount != len(bufs[r]) {
					return fmt.Errorf("pattern: rank %d step %d SendCount %d != buffer length %d", r, t, s.SendCount, len(bufs[r]))
				}
				if _, dup := ships[s.Agent]; dup {
					return fmt.Errorf("pattern: rank %d step %d agent %d already receives another origin", r, t, s.Agent)
				}
				ships[s.Agent] = slices.Clone(bufs[r])
			}
			if s.Origin != NoRank {
				if s.Origin < s.H2Lo || s.Origin >= s.H2Hi {
					return fmt.Errorf("pattern: rank %d step %d origin %d outside h2", r, t, s.Origin)
				}
				op := &p.Plans[s.Origin]
				if t >= len(op.Steps) || op.Steps[t].Agent != r {
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
				if len(s.RecvSources) != 0 {
					return fmt.Errorf("pattern: rank %d step %d has RecvSources without origin", r, t)
				}
				continue
			}
			sources, ok := ships[r]
			if !ok {
				return fmt.Errorf("pattern: rank %d step %d expects origin %d but no shipment", r, t, s.Origin)
			}
			if !slices.Equal(sources, s.RecvSources) {
				return fmt.Errorf("pattern: rank %d step %d RecvSources %v != origin buffer %v", r, t, s.RecvSources, sources)
			}
			for _, src := range sources {
				if !has[r].Has(src) {
					has[r].Add(src)
					bufs[r] = append(bufs[r], src)
				}
			}
			for _, src := range s.SelfCopies {
				if !has[r].Has(src) {
					return fmt.Errorf("pattern: rank %d step %d self-copy of %d not in buffer", r, t, src)
				}
				if err := cover(src, r, fmt.Sprintf("step-%d self-copy", t)); err != nil {
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
		if !slices.Equal(plan.BufSources, bufs[r]) {
			return fmt.Errorf("pattern: rank %d BufSources %v != replayed buffer %v", r, plan.BufSources, bufs[r])
		}
		for _, src := range plan.FinalSelfCopies {
			if !has[r].Has(src) {
				return fmt.Errorf("pattern: rank %d final self-copy of %d not in buffer", r, src)
			}
			if err := cover(src, r, "final self-copy"); err != nil {
				return err
			}
		}
		prevDst := -1
		for _, fs := range plan.FinalSends {
			if fs.Dst == r {
				return fmt.Errorf("pattern: rank %d final send to itself", r)
			}
			if fs.Dst <= prevDst {
				return fmt.Errorf("pattern: rank %d final sends not sorted by destination", r)
			}
			prevDst = fs.Dst
			if len(fs.Sources) == 0 {
				return fmt.Errorf("pattern: rank %d empty final send to %d", r, fs.Dst)
			}
			for _, src := range fs.Sources {
				if !has[r].Has(src) {
					return fmt.Errorf("pattern: rank %d final send to %d includes source %d not in buffer", r, fs.Dst, src)
				}
				if err := cover(src, fs.Dst, fmt.Sprintf("final send from %d", r)); err != nil {
					return err
				}
			}
			finalSenders[fs.Dst].Add(r)
		}
	}
	for v := 0; v < n; v++ {
		want := finalSenders[v].Elems(nil)
		got := p.Plans[v].FinalRecvs
		if !slices.Equal(want, got) {
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
