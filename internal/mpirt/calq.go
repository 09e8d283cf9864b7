package mpirt

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// This file implements the event engine's pending-event structure: a
// simplified ladder queue (Tang & Goh's design reduced to one rung)
// ordering rank resumptions by virtual time with a deterministic
// total tie-break. The event engine pops events strictly in
// (vt, rank, seq) order, so two runs of the same program resume ranks
// in the identical sequence — the queue is where the engine's
// determinism contract bottoms out.
//
// Structure: a small sorted "front" holds the earliest events; a rung
// of equal-width buckets holds the mid-range; an unsorted overflow
// list holds the far future. Pops drain the front; when it empties,
// the next non-empty bucket is sorted and becomes the front, and when
// the rung is exhausted the overflow is re-laddered into a fresh rung
// sized to its population. Each event is touched a constant number of
// times plus its share of one small sort: amortized near-O(1). A typed
// binary heap in its place ran BenchmarkCalQueueHold 1.8–2.8× slower
// (540–102 400 pending) and `-fig mega -scale small` 1.14× slower.

// calEvent is one scheduled resumption: wake rank at virtual time vt.
// seq is the queue's global push counter — the final tie-break that
// makes the pop order total and push-order stable.
type calEvent struct {
	vt   float64
	rank int32
	seq  uint64
}

// calCmp is the deterministic total order: virtual time, then rank,
// then push sequence.
func calCmp(a, b calEvent) int {
	switch {
	case a.vt != b.vt:
		if a.vt < b.vt {
			return -1
		}
		return 1
	case a.rank != b.rank:
		return int(a.rank - b.rank)
	default:
		return cmp.Compare(a.seq, b.seq)
	}
}

func calLess(a, b calEvent) bool { return calCmp(a, b) < 0 }

// calQueue is the ladder queue. The zero value is an empty queue.
//
// Contract: pushed keys must be ≥ the key of the last popped event, or
// ≥ 0 after an (empty) queue's rewind (the engine clamps wake times to
// its virtual "now", which is exactly that key). Within that discipline
// pops come out in calLess order — including events pushed below the
// current front bar, which are sorted into the live front region.
type calQueue struct {
	// front is the sorted earliest region; front[head:] is live.
	front []calEvent
	head  int

	// bar: every queued event with vt < bar lives in the front. It is
	// maintained strictly above every front element's vt, so a new push
	// that ties an already-queued front event still lands in the front
	// and respects the (rank, seq) tie-break.
	bar float64

	// rung is the active bucket ladder covering [rungLo, rungHi] — the
	// upper bound is inclusive, so a push that ties the rung's largest
	// key joins the last bucket and sorts with its equal-key peers
	// rather than slipping into the overflow behind them.
	// rungNext is the first bucket not yet spilled to the front.
	rung     [][]calEvent
	rungLo   float64
	rungHi   float64
	width    float64
	rungNext int

	// overflow holds events beyond the rung (or any rung-less push ≥ bar),
	// unsorted; ovLo/ovHi track its key range for the next re-ladder.
	overflow []calEvent
	ovLo     float64
	ovHi     float64

	n int
}

// calBuckets bounds the rung size: enough buckets that each sorts a
// handful of events, few enough that empty-bucket skipping stays cheap.
func calBuckets(n int) int {
	return min(max(n/8, 1), 8192)
}

// len returns the number of queued events.
func (q *calQueue) len() int { return q.n }

// rewind restarts an empty queue's key range at 0, keeping its buffers
// (left at the old bar, every new push would take insertFront).
func (q *calQueue) rewind() {
	if q.n != 0 {
		panic("mpirt: calQueue rewound with events queued")
	}
	q.bar, q.rung, q.rungNext = 0, q.rung[:0], 0
}

// push enqueues e.
func (q *calQueue) push(e calEvent) {
	q.n++
	if e.vt < q.bar {
		q.insertFront(e)
		return
	}
	if q.rungNext < len(q.rung) && e.vt <= q.rungHi {
		i := q.bucketOf(e.vt)
		q.rung[i] = append(q.rung[i], e)
		return
	}
	if len(q.overflow) == 0 || e.vt < q.ovLo {
		q.ovLo = e.vt
	}
	if len(q.overflow) == 0 || e.vt > q.ovHi {
		q.ovHi = e.vt
	}
	q.overflow = append(q.overflow, e)
}

// bucketOf maps a key into the active rung, clamped so floating-point
// edge effects can never index out of range.
func (q *calQueue) bucketOf(vt float64) int {
	return min(max(int((vt-q.rungLo)/q.width), q.rungNext), len(q.rung)-1)
}

// insertFront places e into the live front region, keeping it sorted.
// The front is one spilled bucket — small — so the memmove is cheap.
func (q *calQueue) insertFront(e calEvent) {
	if len(q.front) == cap(q.front) && q.head >= len(q.front)/2 {
		// Full, and at least half is the popped prefix: reclaim it
		// instead of growing.
		q.front = q.front[:copy(q.front, q.front[q.head:])]
		q.head = 0
	}
	live := q.front[q.head:]
	i := sort.Search(len(live), func(i int) bool { return calLess(e, live[i]) })
	q.front = append(q.front, calEvent{})
	copy(q.front[q.head+i+1:], q.front[q.head+i:])
	q.front[q.head+i] = e
}

// peek returns the least event in (vt, rank, seq) order, leaving it.
func (q *calQueue) peek() (calEvent, bool) {
	if q.n == 0 {
		return calEvent{}, false
	}
	for q.head == len(q.front) {
		q.advance()
	}
	return q.front[q.head], true
}

// pop removes and returns the least event in (vt, rank, seq) order.
func (q *calQueue) pop() (calEvent, bool) {
	e, ok := q.peek()
	if !ok {
		return e, false
	}
	q.head++
	if q.head == len(q.front) {
		q.front = q.front[:0]
		q.head = 0
	}
	q.n--
	return e, true
}

// advance refills the front: spill the next non-empty rung bucket, or
// re-ladder the overflow when the rung is exhausted. Called only when
// events remain (q.n > 0), so it always makes progress.
func (q *calQueue) advance() {
	for q.rungNext < len(q.rung) {
		b := q.rungNext
		q.rungNext++
		if len(q.rung[b]) == 0 {
			continue
		}
		q.spill(q.rung[b])
		q.rung[b] = q.rung[b][:0]
		return
	}
	// Rung exhausted: build a new one from the overflow. Every event is
	// copied out of ov below, so its storage serves the next overflow.
	ov := q.overflow
	q.overflow = ov[:0]
	if len(ov) == 0 {
		// q.n > 0 with every region empty would be a bookkeeping bug;
		// panic loudly rather than loop forever.
		panic("mpirt: calQueue count out of sync")
	}
	if q.ovHi == q.ovLo || len(ov) <= 8 {
		// Degenerate span (all keys equal) or trivially small: sort the
		// whole overflow straight into the front.
		q.rung = q.rung[:0]
		q.rungNext = 0
		q.spill(ov)
		return
	}
	nb := calBuckets(len(ov))
	if cap(q.rung) >= nb {
		q.rung = q.rung[:nb]
		for i := range q.rung {
			q.rung[i] = q.rung[i][:0]
		}
	} else {
		q.rung = make([][]calEvent, nb)
	}
	q.rungNext = 0
	q.rungLo = q.ovLo
	q.rungHi = q.ovHi
	q.width = (q.ovHi - q.ovLo) / float64(nb)
	for _, e := range ov {
		i := min(int((e.vt-q.rungLo)/q.width), nb-1)
		q.rung[i] = append(q.rung[i], e)
	}
}

// spill sorts a batch into the (empty) front and raises the bar just
// above its largest key, so later pushes that tie any front element
// still insert into the front and keep the total order exact.
func (q *calQueue) spill(batch []calEvent) {
	slices.SortFunc(batch, calCmp)
	q.front = append(q.front[:0], batch...)
	q.head = 0
	q.bar = math.Nextafter(batch[len(batch)-1].vt, math.Inf(1))
}
