package pattern

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nbrallgather/internal/sweep"
	"nbrallgather/internal/vgraph"
)

// TestParallelBuildEqualsSerial: levels and a finish split across two
// workers build the serial builder's pattern, Stats included, whatever
// the grain would choose — on the benchmark's two random shapes, Moore
// grids up to the 10 240-rank one, an avoid set, the first-fit policy,
// and a graph of at most L ranks, where only the finish can split.
// BuildAvoiding builds it too, two builds at a time: a planner-sized
// row's builders come from the pool, reused across rows.
func TestParallelBuildEqualsSerial(t *testing.T) {
	er := func(n int, delta float64) *vgraph.Graph {
		g, err := vgraph.ErdosRenyi(n, delta, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	moore := func(n int) *vgraph.Graph {
		dims, err := vgraph.MooreDims(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := vgraph.Moore(dims, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g540 := er(540, 0.3)
	rng := rand.New(rand.NewSource(7))
	avoid := make([]bool, g540.N())
	for i := range avoid {
		avoid[i] = rng.Intn(5) == 0
	}
	for _, tc := range []struct {
		name   string
		g      *vgraph.Graph
		l      int
		policy Policy
		avoid  []bool
	}{
		{"er540d30l18", g540, 18, PolicyLoadAware, nil},
		{"er64d12l4", er(64, 0.12), 4, PolicyLoadAware, nil},
		{"moore16x16", moore(256), 16, PolicyLoadAware, nil},
		{"moore10k", moore(10240), 32, PolicyLoadAware, nil},
		{"er540d30l18/avoid", g540, 18, PolicyLoadAware, avoid},
		{"er540d30l18/firstfit", g540, 18, PolicyFirstFit, nil},
		{"er540d30l540/finish", g540, 540, PolicyLoadAware, nil},
	} {
		build := func(split int8) (*Pattern, bool) {
			b := &builder{g: tc.g, n: tc.g.N(), l: tc.l, policy: tc.policy, avoid: tc.avoid, split: split}
			return b.build(), b.helper != nil
		}
		want, forked := build(sweep.SplitNever)
		if forked {
			t.Fatalf("%s: a serial build forked", tc.name)
		}
		for _, split := range []int8{sweep.SplitAlways, 0} {
			got, forked := build(split)
			if split == sweep.SplitAlways && !forked {
				t.Fatalf("%s: a split build never forked", tc.name)
			}
			if got.Stats != want.Stats || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: split=%d builds a pattern other than the serial one", tc.name, split)
			}
		}
		var wg sync.WaitGroup // two pooled builds at once: each takes scratch of its own
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := BuildAvoiding(tc.g, tc.l, tc.policy, tc.avoid); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: a pooled build differs from a fresh one (%v)", tc.name, err)
				}
			}()
		}
		wg.Wait()
	}
}
