package mpirt

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"weak"
)

// This file is the runtime's only memory pool (enforced by the
// nbr-lint bufferpool analyzer: sync.Pool must not appear anywhere
// else in the module). Two pools back the point-to-point hot path, a
// third the buffers a run's caller hands its ranks, and a fourth kind
// the plan builders' working arrays:
//
//   - payload buffers, size-classed in powers of two, so the eager
//     snapshot every send takes stops allocating once traffic reaches
//     steady state;
//   - Msg containers, recycled on the plain drivers the moment Recv hands
//     the caller its value copy;
//   - byte slabs (GetSlab), which a real-payload measurement cuts every
//     rank's send and receive buffer from, so back-to-back measurements
//     neither allocate nor zero them again;
//   - builder scratch (Scratch), so a plan build allocates only what its
//     plan keeps.
//
// Ownership contract (DESIGN.md §9): a pooled payload is an immutable
// snapshot with a count of holders — the sender's Snapshot handle and
// one per message it was sent in. The last holder to let go returns the
// buffer; one that never does leaves it to the garbage collector (a
// pool miss, never a correctness problem). Gather writes exactly Size
// bytes and Data is capped to Size, so stale bytes from a previous life
// are unobservable and reuse cannot disturb determinism. A composite
// (Compose) owns no bytes and holds each run's buffer once; a run names
// a buffer Gather filled, so composites never nest.

// Payload size classes: 1<<poolMinShift .. 1<<poolMaxShift bytes.
// Larger payloads (and empty ones) bypass the pool.
const (
	poolMinShift = 6                               // 64 B
	poolMaxShift = 20                              // 1 MiB
	composite    = poolMaxShift - poolMinShift + 1 // the class composites pool in
)

// pbuf is a pooled payload buffer. It is pointer-shaped so Get/Put
// round-trips through sync.Pool do not allocate, and it remembers its
// size class so release never has to re-derive it.
type pbuf struct {
	b        []byte
	class    int
	refs     atomic.Int32 // holders; threaded receivers of a shared snapshot release concurrently
	recycled bool         // this life began as a pool hit (Report.PoolHits/PoolMisses)
	n        int          // the snapshot's length: len(data), or Σ len(runs)
	runs     []Piece      // a composite's bytes; b is then nil
}

var payloadPools [composite + 1]sync.Pool

// payloadClass returns the pool class whose buffers hold n bytes, or
// -1 when n is outside the pooled range.
func payloadClass(n int) int {
	if n <= 0 || n > 1<<poolMaxShift {
		return -1
	}
	return max(bits.Len(uint(n-1))-poolMinShift, 0)
}

// allocPayload returns an n-byte buffer and, when it came from the
// pool, the pbuf — held once, by the caller — that must accompany it so
// the last release can return it. The data slice is capacity-capped at
// n: appends by a consumer can never scribble on the pooled tail.
func allocPayload(n int) (*pbuf, []byte) {
	c := payloadClass(n)
	if c < 0 {
		return nil, make([]byte, n) // oversized payloads bypass the pool by design
	}
	pb, _ := payloadPools[c].Get().(*pbuf)
	if pb == nil {
		pb = &pbuf{b: make([]byte, 1<<(uint(c)+poolMinShift)), class: c}
	} else {
		pb.recycled = true
	}
	pb.refs.Store(1)
	pb.n = n
	return pb, pb.b[:n:n]
}

// releasePayload drops one holder of a pooled buffer (nil: unpooled, a
// no-op); the last one returns it for reuse, a composite after letting
// go of its runs.
func releasePayload(pb *pbuf) {
	if pb == nil || pb.refs.Add(-1) != 0 {
		return
	}
	for _, r := range pb.runs {
		releasePayload(r.pb)
	}
	clear(pb.runs) // a pooled composite keeps no buffer alive
	payloadPools[pb.class].Put(pb)
}

// Release gives up the message's hold on its payload buffer — the last
// holder's returns it to the pool — and clears Data. Call it once the
// payload bytes are no longer needed; Data (and any alias into it) must
// not be read afterwards. On a zero Msg, a phantom-mode message, an
// unpooled payload or a second time Release only clears Data, so
// callers need no conditionals.
func (m *Msg) Release() {
	releasePayload(m.pooled)
	m.pooled, m.Data = nil, nil
}

// msgPool recycles Msg containers on the plain drivers: Send draws the
// container here and Recv returns it once the caller has its value
// copy. Chaos mode bypasses it — duplicated in-flight copies share
// one *Msg whose lifetime the scheduler, not the receiver, ends.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// slabPool recycles the byte slabs of GetSlab and PutSlab. A pooled
// slab sits in the private slot of the P that put it, where a Get on
// another P misses it; lastSlab finds the last one put back there too,
// through a weak pointer, so no slab lives longer than the pool keeps it.
var (
	slabPool sync.Pool
	slabMu   sync.Mutex
	lastSlab weak.Pointer[Slab]
)

// Slab is a pooled byte slab. Its contents are stale: B holds whatever
// the slab's previous user left there, so a user writes every byte
// before it reads it.
type Slab struct {
	B   []byte
	out atomic.Bool // a recycled slab is held: the pool's copy or lastSlab is stale
}

// GetSlab returns a slab of n bytes, recycled when the pool holds one
// at least that large; a smaller one is left to the collector.
func GetSlab(n int) *Slab {
	s, _ := slabPool.Get().(*Slab)
	if s == nil || !s.out.CompareAndSwap(false, true) {
		slabMu.Lock()
		if s = lastSlab.Value(); s != nil && !s.out.CompareAndSwap(false, true) {
			s = nil
		}
		slabMu.Unlock()
	}
	if s == nil || cap(s.B) < n {
		s = &Slab{B: make([]byte, n)}
	}
	s.B = s.B[:n]
	return s
}

// PutSlab returns s to the pool (nil: a no-op). Nothing cut from s may
// be used afterwards.
func PutSlab(s *Slab) {
	if s != nil {
		s.out.Store(false)
		slabMu.Lock()
		lastSlab = weak.Make(s)
		slabMu.Unlock()
		slabPool.Put(s)
	}
}

// Scratch pools a plan builder's working state of type T. Like a slab's,
// its contents are stale: a builder sizes and writes every array before
// it reads it, and puts back nothing its result keeps.
type Scratch[T any] struct{ p sync.Pool }

// Get returns a recycled *T, or a new zero one.
func (s *Scratch[T]) Get() *T {
	if v, ok := s.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// Put returns v to the pool. Nothing of v may be used afterwards.
func (s *Scratch[T]) Put(v *T) { s.p.Put(v) }

// Reuse returns scratch resliced to n elements, or a new array of n when
// its own is too small: either way the contents are stale.
func Reuse[T any](scratch []T, n int) []T {
	if cap(scratch) < n {
		return make([]T, n)
	}
	return scratch[:n]
}
