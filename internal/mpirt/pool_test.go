package mpirt

import (
	"testing"
	"time"

	"nbrallgather/internal/topology"
)

func TestPayloadClass(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{-1, -1},
		{0, -1},
		{1, 0},
		{64, 0},
		{65, 1},
		{128, 1},
		{129, 2},
		{1 << 20, poolMaxShift - poolMinShift},
		{1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := payloadClass(c.n); got != c.want {
			t.Errorf("payloadClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAllocPayloadShape(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 20, 1<<20 + 1} {
		pb, buf := allocPayload(n)
		if len(buf) != n {
			t.Fatalf("allocPayload(%d): len = %d", n, len(buf))
		}
		if cap(buf) != n {
			t.Errorf("allocPayload(%d): cap = %d, want exactly n (append must not reach the pooled tail)", n, cap(buf))
		}
		if n > 1<<poolMaxShift {
			if pb != nil {
				t.Errorf("allocPayload(%d): oversize buffer should bypass the pool", n)
			}
			continue
		}
		if pb == nil {
			t.Fatalf("allocPayload(%d): no pbuf for pooled size", n)
		}
		if got := 1 << (uint(pb.class) + poolMinShift); got < n {
			t.Errorf("allocPayload(%d): class %d holds %d bytes", n, pb.class, got)
		}
		releasePayload(pb)
	}
}

func TestMsgReleaseIdempotent(t *testing.T) {
	pb, buf := allocPayload(100)
	m := Msg{Data: buf, Size: 100, pooled: pb}
	m.Release()
	if m.Data != nil || m.pooled != nil {
		t.Fatalf("Release left Data/pooled set")
	}
	m.Release() // second release is a no-op
	var zero Msg
	zero.Release() // zero Msg too
}

// fillPattern writes the deterministic per-(rank, iteration) payload.
func fillPattern(buf []byte, r, i int) {
	for j := range buf {
		buf[j] = byte(r*31 + i*7 + j)
	}
}

// checkPattern verifies a payload still carries fillPattern(r, i).
func checkPattern(t *testing.T, buf []byte, r, i int, when string) {
	t.Helper()
	for j := range buf {
		if want := byte(r*31 + i*7 + j); buf[j] != want {
			t.Errorf("%s: payload from rank %d iter %d corrupt at byte %d: got %d want %d",
				when, r, i, j, buf[j], want)
			return
		}
	}
}

// TestPoolNoAliasing drives sustained ring traffic through the payload
// pool in both execution modes and proves recycled buffers never alias
// live messages: each rank holds its previous message un-released
// while new traffic flows, then re-verifies the held payload before
// releasing it. Run under -race this also checks the pool's
// synchronization. Chaos mode adds duplicate deliveries, whose dropped
// copies share the held message's buffer.
func TestPoolNoAliasing(t *testing.T) {
	modes := []struct {
		name   string
		engine Engine
		mk     func() *Chaos
	}{
		{"threaded", EngineThreaded, func() *Chaos { return nil }},
		{"event", EngineEvent, func() *Chaos { return nil }},
		{"chaos", EngineThreaded, func() *Chaos { return DefaultChaos(7) }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			const iters = 40
			const m = 96 // class 1: small enough to recycle constantly
			_, err := Run(Config{
				Cluster:   topology.Niagara(1, 4),
				Chaos:     mode.mk(),
				Engine:    mode.engine,
				WallLimit: time.Minute,
			}, func(p *Proc) {
				n := p.Size()
				r := p.Rank()
				next, prev := (r+1)%n, (r+n-1)%n
				sbuf := make([]byte, m)
				var held Msg
				for i := 0; i < iters; i++ {
					fillPattern(sbuf, r, i)
					p.Send(next, 5, m, sbuf, nil)
					msg := p.Recv(prev, 5)
					checkPattern(t, msg.Data, prev, i, "on receipt")
					if held.Data != nil {
						// A full round of sends and receives has recycled
						// buffers through the pool since this message
						// arrived; its bytes must be untouched.
						checkPattern(t, held.Data, prev, i-1, "after later traffic")
						held.Release()
					}
					held = msg
				}
				held.Release()
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Cluster: topology.Niagara(1, 4), Chaos: mode.mk(), Engine: mode.engine, WallLimit: time.Minute}
			sharedSnapshotNoAliasing(t, cfg)
			cfg.Chaos = mode.mk()
			compositeNoAliasing(t, cfg)
		})
	}
}

// flatten concatenates a message's runs.
func flatten(m *Msg) []byte {
	var b []byte
	for _, r := range m.Runs() {
		b = append(b, r.Bytes()...)
	}
	return b
}

// compositeNoAliasing composes runs of two snapshots — one of them twice —
// on rank 0 and sends the composite to every other rank; rank 0 then drops
// all three handles. While the receivers hold their messages, same-class
// ring traffic must not recycle either origin buffer; each receiver checks
// its bytes, and the holder counts — the composite's and each origin's —
// are read between barriers down to 0: every buffer went back to its pool
// once, not twice.
func compositeNoAliasing(t *testing.T, cfg Config) {
	const m = 96
	const tagComp, tagRing = 8, 9
	var comp, a, b *pbuf // rank 0's view
	holders := func(p *Proc, when string, wc, wa, wb int32) {
		p.Barrier()
		if p.Rank() == 0 {
			if gc, ga, gb := comp.refs.Load(), a.refs.Load(), b.refs.Load(); gc != wc || ga != wa || gb != wb {
				t.Errorf("%s: holders composite %d, a %d, b %d; want %d, %d, %d", when, gc, ga, gb, wc, wa, wb)
			}
		}
		p.Barrier()
	}
	want := make([]byte, 0, 2*m)
	_, err := Run(cfg, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		var held Msg
		if r == 0 {
			src := make([]byte, m)
			fillPattern(src, 0, 97)
			sa := p.Gather(src)
			fillPattern(src, 0, 98)
			sb := p.Gather(src)
			ra, rb := sa.Whole(), sb.Whole()
			want = append(append(append(want, ra.Bytes()[:m/3]...), rb.Bytes()...), ra.Bytes()[m/3:]...)
			snap := p.Compose([]Piece{ra.Slice(0, m/3), rb, ra.Slice(m/3, m)})
			comp, a, b = snap.pb, sa.pb, sb.pb
			for dst := 1; dst < n; dst++ {
				p.SendSnapshot(dst, tagComp, 2*m, snap, nil, -1)
			}
			snap.Release()
			sa.Release()
			sb.Release()
		} else {
			held = p.Recv(0, tagComp)
			if held.Data != nil || len(held.Runs()) != 3 {
				t.Errorf("rank %d: composite arrived with Data %v and %d runs, want none and 3", r, held.Data != nil, len(held.Runs()))
			}
		}
		sbuf := make([]byte, m)
		for i := 0; i < 10; i++ {
			fillPattern(sbuf, r, i)
			p.Send((r+1)%n, tagRing, m, sbuf, nil)
			msg := p.Recv((r+n-1)%n, tagRing)
			checkPattern(t, msg.Data, (r+n-1)%n, i, "ring traffic")
			msg.Release()
		}
		holders(p, "every receiver holding", int32(n-1), 2, 1)
		if r != 0 {
			if got := flatten(&held); string(got) != string(want) {
				t.Errorf("rank %d: composite bytes changed under later traffic", r)
			}
			if r != n-1 {
				held.Release()
			}
		}
		holders(p, "one receiver holding", 1, 2, 1)
		if r == n-1 {
			held.Release()
		}
		holders(p, "all released", 0, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sharedSnapshotNoAliasing sends one snapshot from rank 0 to every other
// rank. The sender scribbles over its source the moment the sends
// return and drops its handle; every receiver holds its message
// un-Released across full ring rounds of same-class traffic and
// re-verifies the bytes. The buffer's holder count — what decides when
// it re-enters the pool — is read between barriers: all receivers, then
// one, then none.
func sharedSnapshotNoAliasing(t *testing.T, cfg Config) {
	const m = 96
	const tagShare, tagRing = 6, 7
	var shared *pbuf // rank 0's view of the snapshot's buffer
	holders := func(p *Proc, when string, want int32) {
		p.Barrier()
		if p.Rank() == 0 {
			if got := shared.refs.Load(); got != want {
				t.Errorf("%s: snapshot has %d holders, want %d", when, got, want)
			}
		}
		p.Barrier()
	}
	_, err := Run(cfg, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		last := n - 1
		var held Msg
		if r == 0 {
			src := make([]byte, m)
			fillPattern(src, 0, 99)
			snap := p.Gather(src)
			shared = snap.pb
			for dst := 1; dst < n; dst++ {
				p.SendSnapshot(dst, tagShare, m, snap, nil, -1)
			}
			for j := range src {
				src[j] = 0xEE // MPI lets the sender reuse its buffer now
			}
			snap.Release()
		} else {
			held = p.Recv(0, tagShare)
			checkPattern(t, held.Data, 0, 99, "shared snapshot on receipt")
		}
		ring := func(round int) {
			sbuf := make([]byte, m)
			for i := 0; i < 10; i++ {
				fillPattern(sbuf, r, round+i)
				p.Send((r+1)%n, tagRing, m, sbuf, nil)
				msg := p.Recv((r+n-1)%n, tagRing)
				checkPattern(t, msg.Data, (r+n-1)%n, round+i, "ring traffic")
				msg.Release()
			}
		}
		ring(0)
		holders(p, "every receiver holding", int32(n-1))
		if r != 0 {
			checkPattern(t, held.Data, 0, 99, "shared snapshot after ring traffic")
			if r != last {
				held.Release()
			}
		}
		holders(p, "one receiver holding", 1)
		ring(100)
		if r == last {
			checkPattern(t, held.Data, 0, 99, "last holder after the others let go")
			held.Release()
		}
		holders(p, "all released", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCounters: Report.SnapshotBytes counts every byte Gather
// copied and each snapshot is a pool hit or a miss, on all three
// drivers; a shared snapshot is counted once however many messages
// carry it, and phantom mode counts nothing.
func TestSnapshotCounters(t *testing.T) {
	body := func(p *Proc) {
		n, r := p.Size(), p.Rank()
		buf := make([]byte, 100)
		if r == 0 {
			snap := p.Gather(buf)
			for dst := 1; dst < n; dst++ {
				p.SendSnapshot(dst, 5, len(buf), snap, nil, -1)
			}
			snap.Release()
		} else {
			m := p.Recv(0, 5)
			m.Release()
		}
		p.Send((r+1)%n, 6, len(buf), buf, nil)
		m := p.Recv((r+n-1)%n, 6)
		m.Release()
	}
	c := topology.Niagara(1, 2)
	n := int64(c.Ranks())
	for _, tc := range []struct {
		name    string
		cfg     Config
		phantom bool
	}{
		{"threaded", Config{Engine: EngineThreaded}, false},
		{"event", Config{Engine: EngineEvent}, false},
		{"chaos", Config{Chaos: DefaultChaos(3)}, false},
		{"phantom", Config{Phantom: true}, true},
	} {
		tc.cfg.Cluster, tc.cfg.WallLimit = c, time.Minute
		rep, err := Run(tc.cfg, body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantBytes, wantSnaps := 100*(n+1), n+1 // one shared snapshot + one ring send per rank
		if tc.phantom {
			wantBytes, wantSnaps = 0, 0
		}
		if rep.SnapshotBytes != wantBytes || rep.PoolHits+rep.PoolMisses != wantSnaps {
			t.Errorf("%s: SnapshotBytes %d (want %d), hits %d + misses %d (want %d snapshots)",
				tc.name, rep.SnapshotBytes, wantBytes, rep.PoolHits, rep.PoolMisses, wantSnaps)
		}
		if got, want := rep.Bytes(), 100*(2*n-1); got != want {
			t.Errorf("%s: Bytes() = %d, want %d", tc.name, got, want)
		}
	}
}

// TestPoolReuseAcrossRuns pins the steady-state property the
// benchmarks measure: after a warm-up run, a second identical run
// completes correctly drawing its payloads from the warmed pool.
func TestPoolReuseAcrossRuns(t *testing.T) {
	body := func(p *Proc) {
		n := p.Size()
		r := p.Rank()
		sbuf := make([]byte, 200)
		fillPattern(sbuf, r, 0)
		for i := 0; i < 10; i++ {
			p.Send((r+1)%n, 9, len(sbuf), sbuf, nil)
			msg := p.Recv((r+n-1)%n, 9)
			checkPattern(t, msg.Data, (r+n-1)%n, 0, "warm pool")
			msg.Release()
		}
	}
	for run := 0; run < 2; run++ {
		if _, err := Run(Config{Cluster: topology.Niagara(1, 3), WallLimit: time.Minute}, body); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlabHandedOutOnce: a slab put back is found again even when the
// pool's Get misses it, and a slab handed out is never handed out a
// second time while its holder has it, even though the pool or the
// weak fallback still names it.
func TestSlabHandedOutOnce(t *testing.T) {
	s := GetSlab(1 << 10)
	PutSlab(s)
	a := GetSlab(1 << 10)
	if a != s {
		t.Fatal("the slab just put back was not handed out again")
	}
	if b := GetSlab(1 << 10); b == a {
		t.Fatal("one slab handed out twice")
	}
	PutSlab(a)
}
