package mpirt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The calendar queue is where the event engine's determinism bottoms
// out, so its ordering contract is pinned by properties over random
// event sets, not just examples: the pop order is the total
// (vt, rank, seq) order, stable under ties; interleaved pushes and
// pops never invert virtual time; and draining the queue yields
// exactly the sorted input.

// calVTs is a small key alphabet: drawing virtual times from a handful
// of values forces the tie-break paths (equal vt, equal rank) that a
// uniform float draw would essentially never hit.
var calVTs = [...]float64{0, 0, 1e-6, 1e-6, 3e-6, 1e-3, 1e-3, 2.5}

// calSorted is the reference order: a plain sort by calLess.
func calSorted(evs []calEvent) []calEvent {
	out := append([]calEvent(nil), evs...)
	sort.Slice(out, func(i, j int) bool { return calLess(out[i], out[j]) })
	return out
}

// calFromWords decodes a random word list into events with queue-order
// seq stamps: vt and rank from the word, seq from position — matching
// how the engine stamps pushes.
func calFromWords(words []uint16) []calEvent {
	evs := make([]calEvent, len(words))
	for i, w := range words {
		evs[i] = calEvent{
			vt:   calVTs[int(w)%len(calVTs)],
			rank: int32((w >> 3) % 64),
			seq:  uint64(i + 1),
		}
	}
	return evs
}

// TestCalQueuePopOrderTotal: for any random event set pushed in one
// batch, the drain equals the reference sort — the pop order is the
// total (vt, rank, seq) order, and ties (same vt, same rank) come out
// in push order because seq is the push stamp.
func TestCalQueuePopOrderTotal(t *testing.T) {
	prop := func(words []uint16) bool {
		evs := calFromWords(words)
		var q calQueue
		for _, e := range evs {
			q.push(e)
		}
		want := calSorted(evs)
		for i := range want {
			got, ok := q.pop()
			if !ok || got != want[i] {
				t.Logf("pop %d = %+v ok=%v, want %+v", i, got, ok, want[i])
				return false
			}
		}
		if _, ok := q.pop(); ok || q.len() != 0 {
			t.Log("queue not empty after full drain")
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCalQueueInterleavedMonotone: under the engine's push discipline
// (pushed keys clamped to the last popped key), any interleaving of
// pushes and pops never inverts virtual time, and every event pushed
// is eventually popped exactly once. Only vt is monotone across pops:
// a same-vt push with a lower rank legitimately pops after an earlier
// higher-rank event — that asymmetry is why Proc.Yield keys its wake
// one ulp ahead.
func TestCalQueueInterleavedMonotone(t *testing.T) {
	prop := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q calQueue
		var seq uint64
		now := 0.0
		pushed, popped := 0, 0
		for _, w := range ops {
			if w%3 == 0 && q.len() > 0 {
				e, ok := q.pop()
				if !ok {
					t.Log("pop failed with non-empty queue")
					return false
				}
				if e.vt < now {
					t.Logf("vt inverted: popped %g after %g", e.vt, now)
					return false
				}
				now = e.vt
				popped++
				continue
			}
			// Push at or above the current instant, as the engine guarantees.
			vt := now + calVTs[rng.Intn(len(calVTs))]
			seq++
			q.push(calEvent{vt: vt, rank: int32(rng.Intn(64)), seq: seq})
			pushed++
		}
		for q.len() > 0 {
			e, ok := q.pop()
			if !ok || e.vt < now {
				t.Logf("drain inverted at %+v (now %g)", e, now)
				return false
			}
			now = e.vt
			popped++
		}
		if popped != pushed {
			t.Logf("popped %d of %d pushed", popped, pushed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCalQueueDrainEqualsSortedInput: the drained queue is exactly the
// sorted input even when pushes straddle the internal regions (front,
// rung, overflow) — wide key spans force re-laddering, narrow ones the
// degenerate same-key spill.
func TestCalQueueDrainEqualsSortedInput(t *testing.T) {
	prop := func(words []uint16, wide bool) bool {
		evs := calFromWords(words)
		if wide {
			// Stretch the span so the rung and overflow paths engage.
			for i := range evs {
				evs[i].vt *= float64(1 + i%17)
			}
		}
		var q calQueue
		// Push in two waves with a partial drain between: the second
		// wave lands below, inside, and above the live front.
		half := len(evs) / 2
		for _, e := range evs[:half] {
			q.push(e)
		}
		var got []calEvent
		for i := 0; i < half/2; i++ {
			e, _ := q.pop()
			got = append(got, e)
		}
		for _, e := range evs[half:] {
			// Keep the second wave strictly above the last popped key:
			// a vt tie crossing the pop boundary would make pop order
			// diverge from the global sort on rank, which is expected
			// queue behaviour but not what this property pins.
			if len(got) > 0 && e.vt <= got[len(got)-1].vt {
				e.vt = math.Nextafter(got[len(got)-1].vt, math.Inf(1))
			}
			q.push(e)
		}
		for {
			e, ok := q.pop()
			if !ok {
				break
			}
			got = append(got, e)
		}
		if len(got) != len(evs) {
			t.Logf("drained %d of %d", len(got), len(evs))
			return false
		}
		// The clamp may have rewritten vts, so sort what was actually
		// pushed: the first half plus the clamped second wave. got is
		// the push-stream in pop order; re-sorting it must be a no-op.
		want := calSorted(got)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("pop %d = %+v, want %+v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCalQueueZeroValue pins the zero-value contract and the empty pop.
func TestCalQueueZeroValue(t *testing.T) {
	var q calQueue
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue returned ok")
	}
	q.push(calEvent{vt: 0, rank: 3, seq: 1})
	q.push(calEvent{vt: 0, rank: 1, seq: 2})
	e, ok := q.pop()
	if !ok || e.rank != 1 {
		t.Fatalf("pop = %+v ok=%v, want rank 1 (vt ties break by rank)", e, ok)
	}
	e, ok = q.pop()
	if !ok || e.rank != 3 {
		t.Fatalf("pop = %+v ok=%v, want rank 3", e, ok)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after drain", q.len())
	}
}

// TestCalQueueRewind: a drained queue rewound to 0 orders its next batch
// exactly as a fresh queue would — keys below the old range are legal
// again — and a queue still holding events refuses to rewind.
func TestCalQueueRewind(t *testing.T) {
	prop := func(first, second []uint16) bool {
		var q calQueue
		for _, e := range calFromWords(first) {
			q.push(calEvent{vt: e.vt + 10, rank: e.rank, seq: e.seq})
		}
		for q.len() > 0 {
			q.pop()
		}
		q.rewind()
		evs := calFromWords(second)
		for _, e := range evs {
			q.push(e)
		}
		for _, want := range calSorted(evs) {
			if got, ok := q.pop(); !ok || got != want {
				t.Logf("pop = %+v ok=%v, want %+v", got, ok, want)
				return false
			}
		}
		return q.len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rewind of a non-empty queue did not panic")
		}
	}()
	var q calQueue
	q.push(calEvent{vt: 1, seq: 1})
	q.rewind()
}

// BenchmarkCalQueueHold is the classic hold model: pop the least event
// and push the same rank a random latency later, with n wakes pending
// (the rsg540-lat, moore10k-scale and mega rank counts).
func BenchmarkCalQueueHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lat := make([]float64, 4096)
	for i := range lat {
		lat[i] = rng.ExpFloat64() * 1e-6
	}
	for _, n := range []int{540, 10240, 102400} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var q calQueue
			seq := uint64(0)
			for r := 0; r < n; r++ {
				seq++
				q.push(calEvent{vt: lat[r%len(lat)], rank: int32(r), seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := q.pop()
				seq++
				q.push(calEvent{vt: e.vt + lat[i%len(lat)], rank: e.rank, seq: seq})
			}
		})
	}
}
