package pattern_test

import (
	"fmt"
	"testing"

	"nbrallgather/internal/conformance"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/vgraph"
)

// digest folds every field of every RankPlan — its steps' halves
// through pattern.Level, its lists through Sources — and the Stats,
// into one FNV-1a word; list lengths are folded too, so moving an
// element from one list to the next changes it.
func digest(p *pattern.Pattern) uint64 {
	h := uint64(14695981039346656037)
	add := func(v int) { h = (h ^ uint64(int64(v))) * 1099511628211 }
	add(p.L)
	add(len(p.Plans))
	for i := range p.Plans {
		pl := &p.Plans[i]
		list := func(r pattern.Run) {
			add(int(r.Len))
			for _, v := range pl.Sources(r) {
				add(int(v))
			}
		}
		add(pl.Rank)
		add(len(pl.Steps))
		for t, s := range pl.Steps {
			h1lo, h1hi, h2lo, h2hi := pattern.Level(p.Graph.N(), t, pl.Rank)
			for _, v := range []int{h1lo, h1hi, h2lo, h2hi, int(s.Agent), int(s.Origin), int(s.SendCount)} {
				add(v)
			}
			list(s.Recv)
			list(s.Copies)
		}
		add(len(pl.FinalSends))
		for _, fs := range pl.FinalSends {
			add(int(fs.Dst))
			list(fs.Sources)
		}
		list(pl.FinalRecvs)
		list(pl.FinalSelfCopies)
		list(pl.BufSources)
	}
	add(p.Stats.AgentAttempts)
	add(p.Stats.AgentSuccesses)
	add(p.Stats.MaxBufSources)
	return h
}

// TestPatternDigestPinned pins the builder's output, not merely its
// validity: a different stable matching, a reordered source list or a
// moved self-copy all pass Validate and every conformance run. Each
// constant folds four builds of one graph — both policies, each without
// and with an avoid set (every fifth rank from 1) — and was computed at
// the commit before the delivery-list builder (22d183b); the two random
// shapes of the benchmark, whose bit rows run the multi-word intersect
// over an unaligned half boundary (270 = 4·64 + 14 at 540 ranks), were
// pinned at the commit before the hoisted AND-popcount kernel.
func TestPatternDigestPinned(t *testing.T) {
	type row struct {
		name string
		g    *vgraph.Graph
		l    int
		want uint64
	}
	shapes, err := conformance.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"2n2s3l/er35":  0xa1a6f37644b5cb6c,
		"2n2s3l/er70":  0x8eb33664042a81ca,
		"2n2s3l/moore": 0x97f9ad33453f3edc,
		"3n2s2l/er35":  0x5d9d6942b11a8d79,
		"3n2s2l/er70":  0xcfad2a4bc000299c,
		"3n2s2l/moore": 0x6a204ce9e258e988,
		"1n2s4l/er35":  0x74e9e11157ad1728,
		"1n2s4l/er70":  0xbf7a09d58cb9c824,
		"1n2s4l/moore": 0xc0fd0faaff4e1cb4,
		"moore32x32r1": 0xd729a8d0d90a79f1,
		"moore32x32r2": 0x56b29f30b58f4c58,
		"er540d30l18":  0xefaa9ac0dd1b2653,
		"er64d12l4":    0x16eb347ff7743e71,
	}
	var rows []row
	for _, sh := range shapes {
		rows = append(rows, row{sh.Name, sh.Graph, sh.Cluster.L(), want[sh.Name]})
	}
	for r := 1; r <= 2; r++ {
		g, err := vgraph.Moore([]int{32, 32}, r)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("moore32x32r%d", r)
		rows = append(rows, row{name, g, 16, want[name]})
	}
	// rsg540-lat's graph and the planner's.
	for _, er := range []struct {
		name  string
		n     int
		delta float64
		l     int
	}{{"er540d30l18", 540, 0.3, 18}, {"er64d12l4", 64, 0.12, 4}} {
		g, err := vgraph.ErdosRenyi(er.n, er.delta, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{er.name, g, er.l, want[er.name]})
	}
	if len(rows) != len(want) {
		t.Fatalf("%d graphs for %d pinned digests", len(rows), len(want))
	}
	for _, tc := range rows {
		avoid := make([]bool, tc.g.N())
		for i := 1; i < len(avoid); i += 5 {
			avoid[i] = true
		}
		h := uint64(0)
		for _, policy := range []pattern.Policy{pattern.PolicyLoadAware, pattern.PolicyFirstFit} {
			for _, av := range [][]bool{nil, avoid} {
				p, err := pattern.BuildAvoiding(tc.g, tc.l, policy, av)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				h = h*1099511628211 ^ digest(p)
			}
		}
		if h != tc.want {
			t.Errorf("%s: digest %#016x, pinned %#016x", tc.name, h, tc.want)
		}
	}
}
