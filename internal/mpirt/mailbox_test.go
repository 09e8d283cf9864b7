package mpirt

import (
	"errors"
	"testing"
	"testing/quick"
)

// Tests for the mailbox — the direct-mapped slots in front, the
// open-addressed table of intrusive FIFOs behind: together they must
// behave exactly like one arrival-ordered queue searched front to back,
// whatever the slot order and whichever sends and receives were hinted.

var noHint = hint{slot: -1}

// take is an unhinted takeLocked handing back the message, nil for none.
func (b *mailbox) take(src, tag int) *Msg {
	var m Msg
	if !b.takeLocked(src, tag, noHint, &m) {
		return nil
	}
	return &m
}

// refMsg is a message of the reference queue; id is what the mailbox's
// copy carries as Size.
type refMsg struct{ src, tag, id int }

// refTake is the reference matcher: the first message in arrival order
// matching (src, tag), removed from the queue when take is set; nil for
// none.
func refTake(q *[]refMsg, src, tag int, take bool) *refMsg {
	for i, m := range *q {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			if take {
				*q = append((*q)[:i:i], (*q)[i+1:]...)
			}
			return &m
		}
	}
	return nil
}

// refPlans are two slot numberings over the 32 small keys of the
// reference test, as two plans would declare them to one receiver: each
// gives every key a slot of its own, and the two give every slot number
// to different keys.
type refPlans [2][]int32

func (pl *refPlans) hint(plan, src, tag int) hint {
	slot := src + 8*tag
	if plan == 1 {
		slot = 31 - slot
	}
	return hint{slot, 32, &pl[plan][0]}
}

// TestMailboxMatchesReferenceQueue drives random send / exact take /
// AnySource / AnyTag / probe sequences against the reference queue —
// every send and exact receive unhinted, or hinted under one of two
// numberings that reuse each other's slot numbers — and the same message
// must come back at every step. Senders run passes ahead of the
// receiver, both numberings have messages in flight at once, wildcards
// and probes look while messages sit in slots, and what did not fit a
// slot drains from the lists in order.
func TestMailboxMatchesReferenceQueue(t *testing.T) {
	plans := refPlans{{32}, {32}}
	prop := func(ops []uint16) bool {
		var b mailbox
		var ref []refMsg
		for step, op := range ops {
			// Few sources and tags so lists get deep and slots are found
			// taken; the high bits widen the key population now and then
			// (unhinted) so the table grows mid-run.
			src, tag := int(op>>2&7), int(op>>5&3)
			h := noHint
			if plan := int(op >> 10 & 3); plan < 2 {
				h = plans.hint(plan, src, tag)
			}
			if op>>13 == 7 {
				src, tag, h = int(op>>2&0x3f), int(op>>7&0x3f), noHint
			}
			switch op & 3 {
			case 0, 1:
				b.fileLocked(&Msg{Src: src, Tag: tag, Size: step}, h)
				ref = append(ref, refMsg{src, tag, step})
				if b.count+b.inSlots != len(ref) {
					t.Logf("step %d: %d listed + %d in slots, reference holds %d", step, b.count, b.inSlots, len(ref))
					return false
				}
				continue
			case 2:
				if op>>7&1 == 1 {
					src, h = AnySource, noHint
				}
				if op>>8&1 == 1 {
					tag, h = AnyTag, noHint
				}
			}
			want := refTake(&ref, src, tag, false)
			if b.matchesLocked(src, tag, h) != (want != nil) {
				t.Logf("step %d: matchesLocked(%d, %d, %+v) = %v, reference has %+v", step, src, tag, h, want == nil, want)
				return false
			}
			if op>>9&1 == 1 {
				continue // probe only
			}
			refTake(&ref, src, tag, true)
			var got Msg
			ok := b.takeLocked(src, tag, h, &got)
			if ok != (want != nil) || ok && (got.Size != want.id || got.Src != want.src || got.Tag != want.tag) {
				t.Logf("step %d: takeLocked(%d, %d, %+v) = %v %+v, reference %+v", step, src, tag, h, ok, got, want)
				return false
			}
			if got.next != nil {
				t.Logf("step %d: taken message still linked", step)
				return false
			}
			if b.count+b.inSlots != len(ref) {
				t.Logf("step %d: %d listed + %d in slots, reference holds %d", step, b.count, b.inSlots, len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600, MaxCountScale: 0}); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxSlotSpill: a sender two passes ahead of its receiver. The
// first message has the slot, the next two find it taken and go to the
// list; the receiver's three hinted takes return them in send order;
// and a fourth message, sent while the list still holds one, stays
// behind it. Only once everything is drained does a message get the slot
// again — and a free slot holds on to nothing.
func TestMailboxSlotSpill(t *testing.T) {
	plans := refPlans{{32}, {32}}
	h := plans.hint(0, 3, 1)
	var b mailbox
	send := func(id int) {
		pb, data := allocPayload(1)
		data[0] = byte(id)
		b.fileLocked(&Msg{Src: 3, Tag: 1, Size: 1, Data: data, Meta: id, pooled: pb}, h)
	}
	expect := func(id, listed, inSlots int) {
		t.Helper()
		var m Msg
		if !b.takeLocked(3, 1, h, &m) || m.Meta != id || len(m.Data) != 1 || cap(m.Data) != 1 || m.Data[0] != byte(id) || m.pooled == nil {
			t.Fatalf("take = %+v, want message %d", m, id)
		}
		if b.count != listed || b.inSlots != inSlots {
			t.Fatalf("after message %d: %d listed, %d in slots; want %d, %d", id, b.count, b.inSlots, listed, inSlots)
		}
	}
	send(1)
	send(2)
	send(3)
	if b.count != 2 || b.inSlots != 1 {
		t.Fatalf("three passes in flight: %d listed, %d in slots; want 2, 1", b.count, b.inSlots)
	}
	// Another plan's message for the same slot number, while it is taken
	// and the list is not drained: listed, and seen by a wildcard probe
	// in arrival order behind a slot resident.
	b.fileLocked(&Msg{Src: 4, Tag: 2, Size: 9}, plans.hint(1, 4, 2))
	if !b.matchesLocked(AnySource, 2, noHint) || !b.matchesLocked(3, AnyTag, noHint) {
		t.Fatal("wildcard probes miss a listed or a slot-resident message")
	}
	expect(1, 3, 0)
	if e := b.slots[h.slot]; e != (slotMsg{}) {
		t.Fatalf("free slot still holds %+v", e)
	}
	send(4) // the slot is free, the list is not: behind 2 and 3
	expect(2, 3, 0)
	expect(3, 2, 0)
	expect(4, 1, 0)
	var m Msg
	if !b.takeLocked(4, 2, plans.hint(1, 4, 2), &m) || m.Size != 9 {
		t.Fatalf("take under the second numbering = %+v, want message 9", m)
	}
	send(5)
	if b.count != 0 || b.inSlots != 1 {
		t.Fatalf("drained, then one send: %d listed, %d in slots; want 0, 1", b.count, b.inSlots)
	}
	expect(5, 0, 0)
}

// TestSlotHintUsageErrors: the two ways a hint can be wrong. A receive
// that finds another channel's message in its slot — a plan pass cannot,
// its numbering gives the slot to one channel — and a send to a slot
// beyond the receives its destination declared.
func TestSlotHintUsageErrors(t *testing.T) {
	for name, body := range map[string]func(p *Proc){
		"recv": func(p *Proc) {
			if p.Rank() == 0 {
				p.SendSnapshot(1, 7, 0, Snapshot{}, nil, 0)
			} else {
				p.RecvStep(0, 8, 0)
			}
		},
		"send": func(p *Proc) {
			if p.Rank() == 0 {
				p.SendSnapshot(1, 7, 0, Snapshot{}, nil, 1)
			}
		},
	} {
		bothEngines(t, func(t *testing.T, eng Engine) {
			recvs := []int32{1, 1}
			_, err := Run(Config{Cluster: smallCluster(), Ranks: 2, Engine: eng}, func(p *Proc) {
				p.Slots(recvs)
				body(p)
			})
			var ue *UsageError
			if !errors.As(err, &ue) || ue.Op != name {
				t.Fatalf("%s: run error = %v, want a %s UsageError", name, err, name)
			}
		})
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
				m := b.take(s, g)
				if m == nil || m.Src != s || m.Tag != g || m.Size != round {
					t.Fatalf("take(%d, %d) #%d = %+v", s, g, round, m)
				}
			}
			if b.matchesLocked(s, g, noHint) {
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
		m := b.take(AnySource, AnyTag)
		if m == nil || m.seq <= last {
			t.Fatalf("wildcard take #%d out of arrival order: %+v after seq %d", i, m, last)
		}
		last = m.seq
	}
	if b.count != 0 || b.take(AnySource, AnyTag) != nil {
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
	// Message i carries Size i+1; take recycles the container.
	put := func(i int) { b.enqueueLocked(&Msg{Src: keys[i][0], Tag: keys[i][1], Size: i + 1}) }
	for i := range keys {
		put(i)
	}
	if b.keys != len(keys) {
		t.Fatalf("%d keys indexed as %d lists", len(keys), b.keys)
	}
	// A receive posted with a wildcard takes the wildcard path: (0, AnyTag)
	// is "anything from rank 0", the earliest of which is the first key.
	if m := b.take(0, AnyTag); m == nil || m.Size != 1 {
		t.Fatalf("take(0, AnyTag) = %+v, want the first message from rank 0", m)
	}
	put(0)
	for i, k := range keys {
		if k[1] == AnyTag {
			continue
		}
		if m := b.take(k[0], k[1]); m == nil || m.Size != i+1 {
			t.Fatalf("take(%d, %d) = %+v, want message %d", k[0], k[1], m, i)
		}
	}
	// Only the message carrying the literal -1 tag is left, reachable
	// through wildcards alone.
	if b.count != 1 || b.matchesLocked(0, 0xffffffff, noHint) || !b.matchesLocked(AnySource, AnyTag, noHint) {
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
