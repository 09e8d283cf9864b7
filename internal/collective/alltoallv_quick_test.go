package collective

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// runAVAndVerify runs op.RunAV over cluster c with the given counts and
// checks every rank's receive buffer; sbuf/want are derived from the
// edge pattern. Returns an error instead of failing so quick.Check can
// report the shrunken input.
func runAVAndVerify(c topology.Cluster, g *vgraph.Graph, op AOp, counts CountFunc) error {
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
		r := p.Rank()
		var sbuf []byte
		for _, v := range g.Out(r) {
			seg := make([]byte, counts(r, v))
			fillEdgePattern(seg, r, v)
			sbuf = append(sbuf, seg...)
		}
		var want []byte
		for _, u := range g.In(r) {
			seg := make([]byte, counts(u, r))
			fillEdgePattern(seg, u, r)
			want = append(want, seg...)
		}
		rbuf := make([]byte, len(want))
		op.RunAV(p, sbuf, counts, rbuf)
		if !bytes.Equal(rbuf, want) {
			panic(fmt.Sprintf("%s: rank %d alltoallv mismatch", op.Name(), r))
		}
	})
	return err
}

// TestAlltoallvQuickProperty drives RunAV through randomized small
// communicators and per-edge size functions where zero-length segments
// are common (counts in [0,3]) and single-rank communicators occur —
// the corners the hand-written ragged tests skew away from.
func TestAlltoallvQuickProperty(t *testing.T) {
	f := func(nRaw uint8, edgeBits uint64, countOff uint8) bool {
		n := 1 + int(nRaw)%9 // 1..9 ranks, n=1 = single-rank communicator
		out := make([][]int, n)
		bit := uint(0)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				if edgeBits>>(bit%64)&1 == 1 {
					out[u] = append(out[u], v)
				}
				bit++
			}
		}
		g, err := vgraph.FromOutLists(n, out)
		if err != nil {
			t.Logf("graph build n=%d: %v", n, err)
			return false
		}
		counts := func(src, dst int) int {
			return (src*7 + dst*3 + int(countOff)) % 4 // 0..3, zeros common
		}
		c := topology.ForRanks(n, 2)
		dh, err := NewDistanceHalvingAlltoall(g, c.L())
		if err != nil {
			t.Logf("DH build n=%d: %v", n, err)
			return false
		}
		for _, op := range []AOp{NewNaiveAlltoall(g), dh} {
			if err := runAVAndVerify(c, g, op, counts); err != nil {
				t.Logf("%s n=%d edges=%#x off=%d: %v", op.Name(), n, edgeBits, countOff, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallvAllZeroCounts: a CountFunc that is zero on every edge is
// legal (MPI allows zero sendcounts); the collective must complete with
// empty buffers rather than hang or misindex.
func TestAlltoallvAllZeroCounts(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 11)
	dh, err := NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []AOp{NewNaiveAlltoall(g), dh} {
		if err := runAVAndVerify(c, g, op, UniformCount(0)); err != nil {
			t.Fatalf("%s with all-zero counts: %v", op.Name(), err)
		}
	}
}

// TestAlltoallvSingleRank pins the degenerate communicator explicitly:
// one rank, no edges, zero-length buffers.
func TestAlltoallvSingleRank(t *testing.T) {
	g, err := vgraph.FromOutLists(1, [][]int{{}})
	if err != nil {
		t.Fatal(err)
	}
	c := topology.ForRanks(1, 1)
	dh, err := NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []AOp{NewNaiveAlltoall(g), dh} {
		if err := runAVAndVerify(c, g, op, UniformCount(5)); err != nil {
			t.Fatalf("%s on single-rank communicator: %v", op.Name(), err)
		}
	}
}
