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

// fillEdgePattern writes a (src,dst)-unique byte pattern so segment
// routing errors are detected, not just presence.
func fillEdgePattern(buf []byte, src, dst int) {
	for i := range buf {
		buf[i] = byte(src*251 + dst*17 + i*3 + 1)
	}
}

// expectedAlltoallRbuf computes rank r's ground truth: for each
// incoming neighbor u, the segment u addressed to r.
func expectedAlltoallRbuf(g *vgraph.Graph, r, m int) []byte {
	in := g.In(r)
	out := make([]byte, len(in)*m)
	for i, u := range in {
		fillEdgePattern(out[i*m:(i+1)*m], u, r)
	}
	return out
}

func runAndCheckA(t *testing.T, c topology.Cluster, g *vgraph.Graph, op AOp, m int) {
	t.Helper()
	_, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
		r := p.Rank()
		out := g.Out(r)
		sbuf := make([]byte, len(out)*m)
		for i, v := range out {
			fillEdgePattern(sbuf[i*m:(i+1)*m], r, v)
		}
		want := expectedAlltoallRbuf(g, r, m)
		rbuf := make([]byte, len(want))
		op.RunA(p, sbuf, m, rbuf)
		if !bytes.Equal(rbuf, want) {
			for i, u := range g.In(r) {
				if !bytes.Equal(rbuf[i*m:(i+1)*m], want[i*m:(i+1)*m]) {
					panic(fmt.Sprintf("%s: rank %d got wrong segment from %d", op.Name(), r, u))
				}
			}
			panic(fmt.Sprintf("%s: rank %d alltoall buffer mismatch", op.Name(), r))
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", op.Name(), err)
	}
}

func TestAlltoallCorrect(t *testing.T) {
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	for _, delta := range []float64{0.1, 0.4, 0.8} {
		g := erGraph(t, c.Ranks(), delta, 19)
		dh, err := NewDistanceHalvingAlltoall(g, c.L())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []AOp{NewNaiveAlltoall(g), dh} {
			t.Run(fmt.Sprintf("%s/d=%v", op.Name(), delta), func(t *testing.T) {
				runAndCheckA(t, c, g, op, 16)
			})
		}
	}
}

func TestAlltoallMoore(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 8, NodesPerGroup: 2}
	g, err := vgraph.Moore([]int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	runAndCheckA(t, c, g, NewNaiveAlltoall(g), 8)
	runAndCheckA(t, c, g, dh, 8)
}

func TestAlltoallEmptyGraph(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 3}
	g := erGraph(t, c.Ranks(), 0, 1)
	dh, err := NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	runAndCheckA(t, c, g, dh, 4)
}

// TestAlltoallProperty drives random shapes and densities through the
// Distance Halving alltoall.
func TestAlltoallProperty(t *testing.T) {
	f := func(nSeed, dSeed uint8, gSeed int64) bool {
		nodes := 1 + int(nSeed)%4
		c := topology.Cluster{Nodes: nodes, SocketsPerNode: 2, RanksPerSocket: 3, NodesPerGroup: 2}
		delta := float64(dSeed%100) / 100
		g, err := vgraph.ErdosRenyi(c.Ranks(), delta, gSeed)
		if err != nil {
			return false
		}
		dh, err := NewDistanceHalvingAlltoall(g, c.L())
		if err != nil {
			return false
		}
		_, err = mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
			r := p.Rank()
			out := g.Out(r)
			const m = 8
			sbuf := make([]byte, len(out)*m)
			for i, v := range out {
				fillEdgePattern(sbuf[i*m:(i+1)*m], r, v)
			}
			want := expectedAlltoallRbuf(g, r, m)
			rbuf := make([]byte, len(want))
			dh.RunA(p, sbuf, m, rbuf)
			if !bytes.Equal(rbuf, want) {
				panic("mismatch")
			}
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallMessageReduction: on a dense graph the relayed alltoall
// sends far fewer (bigger) messages than the naive per-edge sends.
func TestAlltoallMessageReduction(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 6, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.6, 4)
	dh, err := NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	count := func(op AOp) int64 {
		rep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
			op.RunA(p, nil, 64, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Msgs()
	}
	naive := count(NewNaiveAlltoall(g))
	relay := count(dh)
	if relay >= naive/2 {
		t.Fatalf("alltoall relay sent %d messages vs naive %d — expected ≥2× reduction", relay, naive)
	}
	t.Logf("alltoall messages: naive %d, distance-halving %d", naive, relay)
}

// TestAlltoallNoExtraBytes: unlike allgather, the relayed alltoall must
// not replicate payloads — total bytes shipped may grow only by the
// number of hops a segment takes, bounded by steps+1.
func TestAlltoallByteBound(t *testing.T) {
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.5, 6)
	dh, err := NewDistanceHalvingAlltoall(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	const m = 128
	rep, err := mpirt.Run(mpirt.Config{Cluster: c, Phantom: true}, func(p *mpirt.Proc) {
		dh.RunA(p, nil, m, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, plan := range dh.Pattern().Plans {
		if len(plan.Steps) > steps {
			steps = len(plan.Steps)
		}
	}
	bound := int64(g.Edges()*m) * int64(steps+1)
	if rep.Bytes() > bound {
		t.Fatalf("alltoall shipped %d bytes, above hop bound %d", rep.Bytes(), bound)
	}
}

// raggedEdgeCounts gives each edge a size derived from its endpoints,
// including zero-size segments.
func raggedEdgeCounts(src, dst int) int {
	switch (src + dst) % 4 {
	case 0:
		return 0
	case 1:
		return 8
	case 2:
		return 24 + src%16
	default:
		return 100 + dst%32
	}
}

// TestAlltoallvCorrect verifies ragged per-edge sizes through both
// alltoallv implementations.
func TestAlltoallvCorrect(t *testing.T) {
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	for _, delta := range []float64{0.2, 0.6} {
		g := erGraph(t, c.Ranks(), delta, 37)
		dh, err := NewDistanceHalvingAlltoall(g, c.L())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []AOp{NewNaiveAlltoall(g), dh} {
			t.Run(fmt.Sprintf("%s/d=%v", op.Name(), delta), func(t *testing.T) {
				_, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N()}, func(p *mpirt.Proc) {
					r := p.Rank()
					var sbuf []byte
					for _, v := range g.Out(r) {
						seg := make([]byte, raggedEdgeCounts(r, v))
						fillEdgePattern(seg, r, v)
						sbuf = append(sbuf, seg...)
					}
					var want []byte
					for _, u := range g.In(r) {
						seg := make([]byte, raggedEdgeCounts(u, r))
						fillEdgePattern(seg, u, r)
						want = append(want, seg...)
					}
					rbuf := make([]byte, len(want))
					op.RunAV(p, sbuf, raggedEdgeCounts, rbuf)
					if !bytes.Equal(rbuf, want) {
						panic(fmt.Sprintf("%s: rank %d alltoallv mismatch", op.Name(), r))
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAlltoallvRejectsBadArgs exercises the contract checks.
func TestAlltoallvRejectsBadArgs(t *testing.T) {
	c := topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 2}
	g := erGraph(t, c.Ranks(), 0.7, 2)
	op := NewNaiveAlltoall(g)
	cases := map[string]func(p *mpirt.Proc){
		"nil counts": func(p *mpirt.Proc) { op.RunAV(p, nil, nil, nil) },
		"negative count": func(p *mpirt.Proc) {
			op.RunAV(p, nil, func(int, int) int { return -1 }, nil)
		},
		"sbuf mismatch": func(p *mpirt.Proc) {
			op.RunAV(p, make([]byte, 1), UniformCount(8), make([]byte, 8*g.InDegree(p.Rank())))
		},
	}
	for name, f := range cases {
		_, err := mpirt.Run(mpirt.Config{Cluster: c}, func(p *mpirt.Proc) {
			if p.Rank() == 0 {
				f(p)
			}
		})
		if err == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
}
