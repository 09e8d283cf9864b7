package pattern

import (
	"testing"
)

// TestBuildAvoidingKeepsRelayRolesOffAvoidedRanks pins the avoid-set
// contract over a sweep of graphs: avoided ranks never negotiate agent
// roles in either direction, deliveries to avoided destinations stay
// with their original source (so they travel only over direct graph
// edges), and the restricted pattern still validates — every source
// reaches every out-neighbor exactly once.
func TestBuildAvoidingKeepsRelayRolesOffAvoidedRanks(t *testing.T) {
	for _, tc := range []struct {
		n     int
		delta float64
		seed  int64
		l     int
		avoid []int
	}{
		{16, 0.5, 1, 4, []int{3}},
		{16, 0.7, 2, 4, []int{0, 7, 12}},
		{24, 0.4, 3, 4, []int{5, 6}},
		{12, 0.9, 4, 3, []int{1, 2, 3, 4}},
		{32, 0.3, 5, 8, []int{31}},
	} {
		g := mustER(t, tc.n, tc.delta, tc.seed)
		avoid := make([]bool, tc.n)
		for _, r := range tc.avoid {
			avoid[r] = true
		}
		p, err := BuildAvoiding(g, tc.l, PolicyLoadAware, avoid)
		if err != nil {
			t.Fatalf("n=%d seed=%d: BuildAvoiding: %v", tc.n, tc.seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d seed=%d: restricted pattern invalid: %v", tc.n, tc.seed, err)
		}
		for _, plan := range p.Plans {
			for si, s := range plan.Steps {
				if avoid[plan.Rank] && (s.Agent != NoRank || s.Origin != NoRank) {
					t.Fatalf("n=%d seed=%d: avoided rank %d negotiated at step %d (agent %d, origin %d)",
						tc.n, tc.seed, plan.Rank, si, s.Agent, s.Origin)
				}
				if s.Agent != NoRank && avoid[s.Agent] {
					t.Fatalf("n=%d seed=%d: rank %d offloads to avoided agent %d",
						tc.n, tc.seed, plan.Rank, s.Agent)
				}
				if s.Origin != NoRank && avoid[s.Origin] {
					t.Fatalf("n=%d seed=%d: rank %d agents for avoided origin %d",
						tc.n, tc.seed, plan.Rank, s.Origin)
				}
			}
			for _, fs := range plan.FinalSends {
				if !avoid[fs.Dst] {
					continue
				}
				// Responsibility for an avoided destination never
				// transfers: only the original source delivers, as one
				// segment over its own graph edge.
				if srcs := plan.Sources(fs.Sources); len(srcs) != 1 || int(srcs[0]) != plan.Rank {
					t.Fatalf("n=%d seed=%d: delivery to avoided rank %d carries sources %v from rank %d, want the direct send",
						tc.n, tc.seed, fs.Dst, srcs, plan.Rank)
				}
			}
		}
	}
}

// TestBuildAvoidingNilMatchesBuild pins that a nil (or all-false) avoid
// set is the unrestricted builder.
func TestBuildAvoidingNilMatchesBuild(t *testing.T) {
	g := mustER(t, 16, 0.5, 1)
	base, err := BuildAvoiding(g, 4, PolicyLoadAware, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, avoid := range [][]bool{nil, make([]bool, 16)} {
		p, err := BuildAvoiding(g, 4, PolicyLoadAware, avoid)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(p.Plans), len(base.Plans); got != want {
			t.Fatalf("plan count %d, want %d", got, want)
		}
		for r := range p.Plans {
			a, b := p.Plans[r], base.Plans[r]
			if len(a.Steps) != len(b.Steps) {
				t.Fatalf("rank %d: %d steps, want %d", r, len(a.Steps), len(b.Steps))
			}
			for i := range a.Steps {
				if a.Steps[i].Agent != b.Steps[i].Agent || a.Steps[i].Origin != b.Steps[i].Origin {
					t.Fatalf("rank %d step %d: (%d, %d), want (%d, %d)", r, i,
						a.Steps[i].Agent, a.Steps[i].Origin, b.Steps[i].Agent, b.Steps[i].Origin)
				}
			}
		}
	}
}

// TestBuildAvoidingRejectsBadAvoidLength pins the length validation.
func TestBuildAvoidingRejectsBadAvoidLength(t *testing.T) {
	g := mustER(t, 16, 0.5, 1)
	if _, err := BuildAvoiding(g, 4, PolicyLoadAware, make([]bool, 7)); err == nil {
		t.Fatal("BuildAvoiding accepted a mis-sized avoid set")
	}
}
