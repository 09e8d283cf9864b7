package mpirt

import (
	"math/bits"
	"sync"
)

// This file is the runtime's only memory pool (enforced by the
// nbr-lint bufferpool analyzer: sync.Pool must not appear anywhere
// else in the module). Two pools back the point-to-point hot path:
//
//   - payload buffers, size-classed in powers of two, so the eager
//     snapshot every Send takes stops allocating once traffic reaches
//     steady state;
//   - Msg containers, recycled on the plain drivers the moment Recv hands
//     the caller its value copy.
//
// Ownership contract: a pooled payload belongs to exactly one Msg at
// a time. The receiving collective — the final consumer of Msg.Data —
// returns it with Msg.Release once it has copied or merged the bytes
// it needs; a message that is never released simply falls to the
// garbage collector (a pool miss, never a correctness problem).
// Determinism is preserved because Send copies exactly Size bytes
// into the recycled buffer and Data is capped to Size, so stale bytes
// from a previous life are unobservable.

// Payload size classes: 1<<poolMinShift .. 1<<poolMaxShift bytes.
// Larger payloads (and empty ones) bypass the pool.
const (
	poolMinShift = 6  // 64 B
	poolMaxShift = 20 // 1 MiB
)

// pbuf is a pooled payload buffer. It is pointer-shaped so Get/Put
// round-trips through sync.Pool do not allocate, and it remembers its
// size class so release never has to re-derive it.
type pbuf struct {
	b     []byte
	class int
}

var payloadPools [poolMaxShift - poolMinShift + 1]sync.Pool

// payloadClass returns the pool class whose buffers hold n bytes, or
// -1 when n is outside the pooled range.
func payloadClass(n int) int {
	if n <= 0 || n > 1<<poolMaxShift {
		return -1
	}
	c := bits.Len(uint(n-1)) - poolMinShift
	if c < 0 {
		c = 0
	}
	return c
}

// allocPayload returns an n-byte buffer and, when it came from the
// pool, the pbuf that must accompany the Msg so Release can return
// it. The data slice is capacity-capped at n: appends by a consumer
// can never scribble on the pooled tail.
func allocPayload(n int) (*pbuf, []byte) {
	c := payloadClass(n)
	if c < 0 {
		return nil, make([]byte, n) //lint:allocok — oversized payload bypasses the pool by design
	}
	pb, _ := payloadPools[c].Get().(*pbuf)
	if pb == nil {
		pb = &pbuf{b: make([]byte, 1<<(uint(c)+poolMinShift)), class: c} //lint:allocok — pool-miss refill; amortized across reuses
	}
	return pb, pb.b[:n:n]
}

// releasePayload returns a pooled buffer for reuse.
func releasePayload(pb *pbuf) {
	payloadPools[pb.class].Put(pb)
}

// Release returns the message's payload buffer to the runtime's
// size-classed pool and clears Data. Call it when the payload bytes
// are no longer needed — after the receiving collective has copied or
// merged them — and at most once per received message; the Data slice
// (and any alias into it) must not be read afterwards. Release on a
// zero Msg, a phantom-mode message, or an unpooled payload is a no-op
// beyond clearing Data, so callers need no conditionals.
//
//lint:hotpath
func (m *Msg) Release() {
	if m.pooled != nil {
		releasePayload(m.pooled)
		m.pooled = nil
	}
	m.Data = nil
}

// msgPool recycles Msg containers on the plain drivers: Send draws the
// container here and Recv returns it once the caller has its value
// copy. Chaos mode bypasses it — duplicated in-flight copies share
// one *Msg whose lifetime the scheduler, not the receiver, ends.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}
