package mpirt

import (
	"testing"
	"testing/quick"
)

// Tests for the mailbox match index (open-addressed table of intrusive
// FIFOs): it must behave exactly like one arrival-ordered queue
// searched front to back, whatever the slot order.

// refTake is the reference matcher: the first message in arrival order
// matching (src, tag), removed from the queue when take is set.
func refTake(q *[]*Msg, src, tag int, take bool) *Msg {
	for i, m := range *q {
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			if take {
				*q = append((*q)[:i:i], (*q)[i+1:]...)
			}
			return m
		}
	}
	return nil
}

// TestMailboxMatchesReferenceQueue drives random enqueue / exact take /
// AnySource / AnyTag / probe sequences against the reference queue: the
// same message must come back at every step.
func TestMailboxMatchesReferenceQueue(t *testing.T) {
	prop := func(ops []uint16) bool {
		var b mailbox
		var ref []*Msg
		for step, op := range ops {
			// Few sources and tags so lists get deep; the high bits widen
			// the key population now and then so the table grows mid-run.
			src, tag := int(op>>2&7), int(op>>5&3)
			if op>>13 == 7 {
				src, tag = int(op>>2&0x3f), int(op>>7&0x3f)
			}
			switch op & 3 {
			case 0, 1:
				m := &Msg{Src: src, Tag: tag}
				b.enqueueLocked(m)
				ref = append(ref, m)
				continue
			case 2:
				if op>>7&1 == 1 {
					src = AnySource
				}
				if op>>8&1 == 1 {
					tag = AnyTag
				}
			}
			want := refTake(&ref, src, tag, false)
			if b.matchesLocked(src, tag) != (want != nil) {
				t.Logf("step %d: matchesLocked(%d, %d) = %v, reference has %+v", step, src, tag, want == nil, want)
				return false
			}
			if op>>9&1 == 1 {
				continue // probe only
			}
			refTake(&ref, src, tag, true)
			got := b.takeLocked(src, tag)
			if got != want {
				t.Logf("step %d: takeLocked(%d, %d) = %+v, reference %+v", step, src, tag, got, want)
				return false
			}
			if got != nil && got.next != nil {
				t.Logf("step %d: taken message still linked", step)
				return false
			}
			if b.count != len(ref) {
				t.Logf("step %d: count %d, reference holds %d", step, b.count, len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, MaxCountScale: 0}); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxGrowth: one mailbox indexes well over a thousand distinct
// keys; per-key FIFO order and global arrival order both survive every
// table doubling.
func TestMailboxGrowth(t *testing.T) {
	const srcs, tagsPer = 40, 30 // 1 200 keys
	var b mailbox
	fill := func() {
		for round := 0; round < 2; round++ {
			for s := 0; s < srcs; s++ {
				for g := 0; g < tagsPer; g++ {
					b.enqueueLocked(&Msg{Src: s, Tag: g, Size: round})
				}
			}
		}
	}
	fill()
	if b.keys != srcs*tagsPer || b.count != 2*srcs*tagsPer {
		t.Fatalf("index holds %d keys / %d messages, want %d / %d", b.keys, b.count, srcs*tagsPer, 2*srcs*tagsPer)
	}
	if len(b.table)&(len(b.table)-1) != 0 || 4*b.keys > 3*len(b.table) {
		t.Fatalf("table of %d slots for %d keys: not a power of two under 3/4 load", len(b.table), b.keys)
	}
	for s := srcs - 1; s >= 0; s-- {
		for g := tagsPer - 1; g >= 0; g-- {
			for round := 0; round < 2; round++ {
				m := b.takeLocked(s, g)
				if m == nil || m.Src != s || m.Tag != g || m.Size != round {
					t.Fatalf("take(%d, %d) #%d = %+v", s, g, round, m)
				}
			}
			if b.matchesLocked(s, g) {
				t.Fatalf("key (%d, %d) still matches after draining", s, g)
			}
		}
	}
	// Drained lists keep their slots: refilling adds no key, and a full
	// wildcard drain returns strict arrival order.
	fill()
	if b.keys != srcs*tagsPer {
		t.Fatalf("refill grew the key population to %d", b.keys)
	}
	var last uint64
	for i := 0; i < 2*srcs*tagsPer; i++ {
		m := b.takeLocked(AnySource, AnyTag)
		if m == nil || m.seq <= last {
			t.Fatalf("wildcard take #%d out of arrival order: %+v after seq %d", i, m, last)
		}
		last = m.seq
	}
	if b.count != 0 || b.takeLocked(AnySource, AnyTag) != nil {
		t.Fatalf("mailbox not empty after draining: count %d", b.count)
	}
}

// TestMailboxKeysNeverAlias: the table hashes a packed 32+32-bit word
// but compares the exact pair, so tags that agree in their low 32 bits
// — including a message sent with the literal wildcard value — land on
// distinct lists, and a wildcard is never mistaken for a key.
func TestMailboxKeysNeverAlias(t *testing.T) {
	keys := [][2]int{
		{0, 5}, {0, 5 + 1<<32}, {0, 0xffffffff}, {0, AnyTag}, {0, -5},
		{1, 5}, {1, 0}, {0, 1 << 32}, {1<<31 - 1, 5}, {1 << 20, 0xffffffff},
	}
	var b mailbox
	msgs := make([]*Msg, len(keys))
	for i, k := range keys {
		msgs[i] = &Msg{Src: k[0], Tag: k[1]}
		b.enqueueLocked(msgs[i])
	}
	if b.keys != len(keys) {
		t.Fatalf("%d keys indexed as %d lists", len(keys), b.keys)
	}
	// A receive posted with a wildcard takes the wildcard path: (0, AnyTag)
	// is "anything from rank 0", the earliest of which is the first key.
	if m := b.takeLocked(0, AnyTag); m != msgs[0] {
		t.Fatalf("take(0, AnyTag) = %+v, want the first message from rank 0", m)
	}
	b.enqueueLocked(msgs[0])
	for i, k := range keys {
		if k[1] == AnyTag {
			continue
		}
		if m := b.takeLocked(k[0], k[1]); m != msgs[i] {
			t.Fatalf("take(%d, %d) = %+v, want message %d", k[0], k[1], m, i)
		}
	}
	// Only the message carrying the literal -1 tag is left, reachable
	// through wildcards alone.
	if b.count != 1 || b.matchesLocked(0, 0xffffffff) || !b.matchesLocked(AnySource, AnyTag) {
		t.Fatalf("leftover: count %d", b.count)
	}
}

// TestMsgUnlinkedOutsideMailbox: Msg.next is mailbox-private — nil on
// every message a receive hands out (even when its list held more
// behind it) and on every container that went back to msgPool.
func TestMsgUnlinkedOutsideMailbox(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		const depth = 8
		_, err := Run(Config{Cluster: smallCluster(), Ranks: 2, Engine: eng}, func(p *Proc) {
			if p.Rank() == 0 {
				for i := 0; i < depth; i++ {
					p.Send(1, 4, 1, []byte{byte(i)}, nil)
				}
				p.Send(1, 5, 0, nil, nil)
				return
			}
			p.Recv(0, 5) // sent last: the tag-4 list is now depth long
			for i := 0; i < depth; i++ {
				m := p.Recv(0, 4)
				if m.next != nil {
					t.Errorf("received message %d still linked into its match list", i)
				}
				m.Release()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*depth; i++ {
			if m := msgPool.Get().(*Msg); m.next != nil || m.pooled != nil || m.Data != nil {
				t.Fatalf("msgPool holds a live container: %+v", *m)
			}
		}
	})
}
