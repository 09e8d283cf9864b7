package topology

import (
	"testing"
	"testing/quick"
)

func TestRanksAndPlacement(t *testing.T) {
	c := Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Ranks(), 24; got != want {
		t.Fatalf("Ranks = %d, want %d", got, want)
	}
	if got, want := c.RanksPerNode(), 8; got != want {
		t.Fatalf("RanksPerNode = %d, want %d", got, want)
	}
	if got, want := c.L(), 4; got != want {
		t.Fatalf("L = %d, want %d", got, want)
	}
	cases := []struct{ rank, node, socket, group int }{
		{0, 0, 0, 0},
		{3, 0, 0, 0},
		{4, 0, 1, 0},
		{7, 0, 1, 0},
		{8, 1, 2, 0},
		{15, 1, 3, 0},
		{16, 2, 4, 1},
		{23, 2, 5, 1},
	}
	for _, tc := range cases {
		if got := c.NodeOf(tc.rank); got != tc.node {
			t.Errorf("NodeOf(%d) = %d, want %d", tc.rank, got, tc.node)
		}
		if got := c.SocketOf(tc.rank); got != tc.socket {
			t.Errorf("SocketOf(%d) = %d, want %d", tc.rank, got, tc.socket)
		}
		if got := c.GroupOf(tc.rank); got != tc.group {
			t.Errorf("GroupOf(%d) = %d, want %d", tc.rank, got, tc.group)
		}
	}
}

func TestDistClassification(t *testing.T) {
	c := Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	cases := []struct {
		a, b int
		want Distance
	}{
		{0, 0, DistSelf},
		{0, 1, DistSocket},
		{0, 2, DistNode},
		{0, 3, DistNode},
		{0, 4, DistGroup},  // node 1, same group
		{0, 8, DistGlobal}, // node 2, group 1
		{15, 15, DistSelf},
		{12, 15, DistNode},
	}
	for _, tc := range cases {
		if got := c.Dist(tc.a, tc.b); got != tc.want {
			t.Errorf("Dist(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	c := Cluster{Nodes: 5, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}
	f := func(a, b uint8) bool {
		x, y := int(a)%c.Ranks(), int(b)%c.Ranks()
		return c.Dist(x, y) == c.Dist(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatNetworkNeverGlobal(t *testing.T) {
	c := Flat(6, 2, 3)
	for a := 0; a < c.Ranks(); a++ {
		for b := 0; b < c.Ranks(); b++ {
			if c.Dist(a, b) == DistGlobal {
				t.Fatalf("flat cluster classified %d,%d as global", a, b)
			}
		}
	}
	if c.Groups() != 1 {
		t.Fatalf("flat cluster has %d groups", c.Groups())
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Cluster{
		{Nodes: 0, SocketsPerNode: 1, RanksPerSocket: 1},
		{Nodes: 1, SocketsPerNode: 0, RanksPerSocket: 1},
		{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 0},
		{Nodes: 1, SocketsPerNode: 1, RanksPerSocket: 1, NodesPerGroup: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestNiagaraPreset(t *testing.T) {
	c := Niagara(60, 18)
	if c.Ranks() != 2160 {
		t.Fatalf("Niagara(60,18) hosts %d ranks, want 2160", c.Ranks())
	}
	if c.Groups() != 5 {
		t.Fatalf("Niagara(60,18) has %d groups, want 5", c.Groups())
	}
}

func TestForRanks(t *testing.T) {
	for _, n := range []int{1, 7, 36, 100, 540} {
		c := ForRanks(n, 6)
		if c.Ranks() < n {
			t.Fatalf("ForRanks(%d,6) hosts only %d", n, c.Ranks())
		}
		if c.Ranks()-n >= c.RanksPerNode() {
			t.Fatalf("ForRanks(%d,6) over-provisions: %d ranks", n, c.Ranks())
		}
	}
}

func TestDistanceString(t *testing.T) {
	want := map[Distance]string{
		DistSelf: "self", DistSocket: "socket", DistNode: "node",
		DistGroup: "group", DistGlobal: "global", Distance(99): "Distance(99)",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestScatteredPreservesGroupSizes(t *testing.T) {
	c := Niagara(24, 4).Scattered(7)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for node := 0; node < c.Nodes; node++ {
		counts[c.NodeGroup[node]]++
	}
	if len(counts) != c.Groups() {
		t.Fatalf("scatter produced %d groups, want %d", len(counts), c.Groups())
	}
	for g, n := range counts {
		if n != c.NodesPerGroup {
			t.Fatalf("group %d has %d nodes, want %d", g, n, c.NodesPerGroup)
		}
	}
	// Deterministic for a seed, different across seeds.
	c2 := Niagara(24, 4).Scattered(7)
	for i := range c.NodeGroup {
		if c.NodeGroup[i] != c2.NodeGroup[i] {
			t.Fatal("same seed produced different scatter")
		}
	}
	c3 := Niagara(24, 4).Scattered(8)
	same := true
	for i := range c.NodeGroup {
		if c.NodeGroup[i] != c3.NodeGroup[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical scatter")
	}
}

func TestScatteredDistUsesMapping(t *testing.T) {
	c := Cluster{Nodes: 4, SocketsPerNode: 1, RanksPerSocket: 2, NodesPerGroup: 2,
		NodeGroup: []int{0, 1, 0, 1}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nodes 0 and 2 share a group under the mapping; 0 and 1 do not.
	if c.Dist(0, 4) != DistGroup {
		t.Fatalf("Dist(0,4) = %v, want group", c.Dist(0, 4))
	}
	if c.Dist(0, 2) != DistGlobal {
		t.Fatalf("Dist(0,2) = %v, want global", c.Dist(0, 2))
	}
}

func TestScatteredValidation(t *testing.T) {
	c := Niagara(4, 2)
	c.NodeGroup = []int{0}
	if err := c.Validate(); err == nil {
		t.Error("accepted short NodeGroup")
	}
	c.NodeGroup = []int{0, 0, 0, 99}
	if err := c.Validate(); err == nil {
		t.Error("accepted out-of-range group")
	}
	flat := Flat(4, 1, 2)
	if got := flat.Scattered(1); got.NodeGroup != nil {
		t.Error("flat cluster scattered")
	}
}
