package pattern

import (
	"math/rand"
	"reflect"
	"testing"

	"nbrallgather/internal/vgraph"
)

// TestParallelBuildEqualsSerial: a level split across two workers
// builds the serial builder's pattern, Stats included, whatever the
// grain would choose — on the benchmark's two random shapes, Moore grids
// up to the 10 240-rank one, an avoid set and the first-fit policy.
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
	} {
		build := func(split int8) (*Pattern, bool) {
			b := &builder{g: tc.g, n: tc.g.N(), l: tc.l, policy: tc.policy, avoid: tc.avoid, split: split}
			p, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			return p, b.helper != nil
		}
		want, forked := build(splitNever)
		if forked {
			t.Fatalf("%s: a serial build forked", tc.name)
		}
		for _, split := range []int8{splitAlways, 0} {
			got, forked := build(split)
			if split == splitAlways && !forked {
				t.Fatalf("%s: a split build never forked", tc.name)
			}
			if got.Stats != want.Stats || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: split=%d builds a pattern other than the serial one", tc.name, split)
			}
		}
	}
}
