package collective

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// fourOps are the four allgather algorithms over g.
func fourOps(tb testing.TB, g *vgraph.Graph, c topology.Cluster, cnK int) []Op {
	tb.Helper()
	var ops []Op
	for _, algo := range Algos() {
		op, err := New(algo, g, c, PlanParams{CNGroup: cnK}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		ops = append(ops, op)
	}
	return ops
}

// uniformRun is one collective with uniform m-byte blocks, allgather or
// alltoall alike: sendBlocks(r) blocks out of rank r, InDegree(r) in,
// block i of rank r's send buffer filled by fill(buf, r, i) and the
// receive buffer expected to equal want(r).
type uniformRun struct {
	name       string
	sendBlocks func(r int) int
	fill       func(buf []byte, r, i int)
	want       func(r int) []byte
	run        func(p mpirt.Endpoint, sbuf, rbuf []byte)
}

// sixRuns are fourOps and the two alltoall ops over g, with m-byte
// blocks.
func sixRuns(tb testing.TB, g *vgraph.Graph, c topology.Cluster, cnK, m int) []uniformRun {
	tb.Helper()
	var runs []uniformRun
	for _, op := range fourOps(tb, g, c, cnK) {
		runs = append(runs, uniformRun{op.Name(), func(int) int { return 1 },
			func(buf []byte, r, _ int) { fillPattern(buf, r) },
			func(r int) []byte { return expectedRbuf(g, r, m) },
			func(p mpirt.Endpoint, sbuf, rbuf []byte) { op.Run(p, sbuf, m, rbuf) }})
	}
	for _, algo := range Algos() {
		if !HasAlltoall(algo) {
			continue
		}
		op, err := NewAlltoall(algo, g, c, PlanParams{})
		if err != nil {
			tb.Fatal(err)
		}
		runs = append(runs, uniformRun{op.Name(), g.OutDegree,
			func(buf []byte, r, i int) { fillEdgePattern(buf, r, g.Out(r)[i]) },
			func(r int) []byte { return expectedAlltoallRbuf(g, r, m) },
			func(p mpirt.Endpoint, sbuf, rbuf []byte) { op.RunA(p, sbuf, m, rbuf) }})
	}
	return runs
}

// TestSenderMayOverwrite pins the eager-snapshot semantics against a
// later borrowed-send "optimisation": every rank scribbles over its
// send buffer the moment Run returns — while peers are still receiving —
// and every receive buffer must come out byte-exact all the same. Under
// chaos, duplicated in-flight copies share one composite's holds too.
func TestSenderMayOverwrite(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.4, 9)
	const m = 256
	drivers := map[string]mpirt.Config{"chaos": {Cluster: c, Chaos: mpirt.DefaultChaos(5)}}
	for _, eng := range mpirt.Engines() {
		drivers[string(eng)] = mpirt.Config{Cluster: c, Engine: eng}
	}
	for drv, cfg := range drivers {
		for _, op := range sixRuns(t, g, c, 3, m) {
			t.Run(fmt.Sprintf("%s/%s", drv, op.name), func(t *testing.T) {
				rbufs := make([][]byte, g.N())
				_, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
					r := p.Rank()
					sbuf := make([]byte, op.sendBlocks(r)*m)
					for i := 0; i < op.sendBlocks(r); i++ {
						op.fill(sbuf[i*m:(i+1)*m], r, i)
					}
					rbufs[r] = make([]byte, g.InDegree(r)*m)
					op.run(p, sbuf, rbufs[r])
					for i := range sbuf {
						sbuf[i] = 0xEE
					}
					p.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, rbuf := range rbufs {
					if !bytes.Equal(rbuf, op.want(r)) {
						t.Errorf("rank %d receive buffer corrupted by a sender's overwrite", r)
					}
				}
			})
		}
	}
}

// TestSnapshotBytes: a real-mode pass of any algorithm copies each
// sending rank's send buffer into one snapshot, once, however many
// neighbours it feeds and however often its blocks are relayed — a relay
// composes references to that snapshot (Proc.Compose) — so SnapshotBytes
// is Σ over senders of their send-buffer bytes, never more than the pass
// sends, and each sender takes one pooled snapshot per pass. Naive
// alltoall sends each segment once: its Bytes() is that same sum. Phantom
// mode snapshots nothing. On every driver.
func TestSnapshotBytes(t *testing.T) {
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.4, 9)
	const m, trials = 128, 3
	senders := 0
	for r := 0; r < g.N(); r++ {
		if g.OutDegree(r) > 0 {
			senders++
		}
	}
	run := func(cfg mpirt.Config, op uniformRun) *mpirt.Report {
		cfg.Cluster = c
		rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
			var sbuf, rbuf []byte
			if !p.Phantom() {
				sbuf, rbuf = make([]byte, op.sendBlocks(p.Rank())*m), make([]byte, g.InDegree(p.Rank())*m)
			}
			for tr := 0; tr < trials; tr++ {
				op.run(p, sbuf, rbuf)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		return rep
	}
	drivers := map[string]mpirt.Config{
		"threaded": {Engine: mpirt.EngineThreaded},
		"event":    {Engine: mpirt.EngineEvent},
		"chaos":    {Chaos: mpirt.DefaultChaos(5)},
	}
	runs := sixRuns(t, g, c, 3, m)
	for name, cfg := range drivers {
		for i, op := range runs {
			rep := run(cfg, op)
			own := 0 // Σ over senders of their send-buffer bytes
			for r := 0; r < g.N(); r++ {
				if g.OutDegree(r) > 0 {
					own += op.sendBlocks(r) * m
				}
			}
			if want := int64(own * trials); rep.SnapshotBytes != want {
				t.Errorf("%s/%s: SnapshotBytes %d, want Σ senders' own bytes × trials = %d", name, op.name, rep.SnapshotBytes, want)
			}
			if rep.SnapshotBytes <= 0 || rep.SnapshotBytes > rep.Bytes() {
				t.Errorf("%s/%s: SnapshotBytes %d outside (0, Bytes() %d]: no algorithm snapshots more than it sends", name, op.name, rep.SnapshotBytes, rep.Bytes())
			}
			if op.name == "naive-alltoall" && rep.Bytes() != int64(own*trials) {
				t.Errorf("%s/naive-alltoall: Bytes() %d, want each segment sent once = %d", name, rep.Bytes(), own*trials)
			}
			if got, want := rep.PoolHits+rep.PoolMisses, int64(senders*trials); got != want {
				t.Errorf("%s/%s: %d pooled snapshots, want one per sender per pass = %d", name, op.name, got, want)
			}
			if i == 0 {
				if want := int64(g.Edges() * m * trials); rep.Bytes() != want {
					t.Errorf("%s/naive: Bytes() %d, want edges·m·trials = %d", name, rep.Bytes(), want)
				}
			}
		}
	}
	if rep := run(mpirt.Config{Phantom: true}, runs[0]); rep.SnapshotBytes != 0 || rep.PoolHits != 0 || rep.PoolMisses != 0 {
		t.Errorf("phantom: SnapshotBytes %d, PoolHits %d, PoolMisses %d, want all zero", rep.SnapshotBytes, rep.PoolHits, rep.PoolMisses)
	}
}

// TestInterpreterRealAllocs: once the payload pool is warm a real-mode
// pass allocates bookkeeping only — requests, the holdings map — and no
// payload-sized temporary: under 5 % of the bytes it sends. (The Packed
// temporary plus the hold buffer used to make it more than 100 %.)
func TestInterpreterRealAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector makes sync.Pool drop items at random")
			}
		}
	}
	// No collection may empty the pool between the warm pass and the
	// measured one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := topology.Cluster{Nodes: 4, SocketsPerNode: 2, RanksPerSocket: 8, NodesPerGroup: 2}
	g := erGraph(t, c.Ranks(), 0.3, 11)
	const m = 8 << 10
	for _, op := range fourOps(t, g, c, 4)[1:3] { // cn, dh
		var before, after runtime.MemStats
		// stamp reads the heap counters on rank 0 while every other rank
		// waits between the two barriers.
		stamp := func(p *mpirt.Proc, ms *runtime.MemStats) {
			p.Barrier()
			if p.Rank() == 0 {
				runtime.ReadMemStats(ms)
			}
			p.Barrier()
		}
		rep, err := mpirt.Run(mpirt.Config{Cluster: c, Engine: mpirt.EngineEvent}, func(p *mpirt.Proc) {
			sbuf, rbuf := make([]byte, m), make([]byte, g.InDegree(p.Rank())*m)
			op.Run(p, sbuf, m, rbuf)
			stamp(p, &before)
			op.Run(p, sbuf, m, rbuf)
			stamp(p, &after)
		})
		if err != nil {
			t.Fatal(err)
		}
		sent, alloc := rep.Bytes()/2, int64(after.TotalAlloc-before.TotalAlloc)
		t.Logf("%s: warm pass allocates %d bytes sending %d (%.2f %%), pool %d hits / %d misses",
			op.Name(), alloc, sent, 100*float64(alloc)/float64(sent), rep.PoolHits, rep.PoolMisses)
		if alloc*20 >= sent {
			t.Errorf("%s: warm real-mode pass allocates %d bytes, want < 5 %% of the %d it sends", op.Name(), alloc, sent)
		}
	}
}

// BenchmarkInterpReal is one real-payload pass of the interpreter at the
// repo benchmark's rsg216-real shape: 216 ranks, ER δ=0.3, 8 KiB blocks.
// Throughput is payload bytes sent per pass. The deliver rows time the
// pass's result-buffer copies alone, plain and streamed, over the same
// buffers at 1, 4, 8 and 64 KiB blocks: both sides of streamMin.
func BenchmarkInterpReal(b *testing.B) {
	c := topology.Niagara(6, 18)
	g, err := vgraph.ErdosRenyi(c.Ranks(), 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	const m = 8 << 10
	slab := make([]byte, g.Edges()*m)
	sbufs, rbufs := make([][]byte, g.N()), make([][]byte, g.N())
	for r, pos := 0, 0; r < g.N(); r, pos = r+1, pos+g.InDegree(r)*m {
		sbufs[r], rbufs[r] = make([]byte, m), slab[pos:pos+g.InDegree(r)*m:pos+g.InDegree(r)*m]
		fillPattern(sbufs[r], r)
	}
	ops := fourOps(b, g, c, 4)
	for i, name := range []string{"naive", "cn", "dh"} {
		op := ops[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rep, err := mpirt.Run(mpirt.Config{Cluster: c, Engine: mpirt.EngineEvent}, func(p *mpirt.Proc) {
				r := p.Rank()
				op.Run(p, sbufs[r], m, rbufs[r]) // warm the pool
				p.Barrier()
				if r == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					op.Run(p, sbufs[r], m, rbufs[r])
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(rep.Bytes() / int64(b.N+1))
			b.ReportMetric(float64(rep.SnapshotBytes)/float64(b.N+1), "snapshotB/op")
		})
	}
	benchDeliver(b, slab)
}
