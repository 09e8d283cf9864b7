// Package plancache is a concurrent, content-addressed cache for built
// communication plans. Pattern negotiation (agent election, CN
// grouping, leader assignment) is the expensive, reusable artifact of a
// neighborhood allgather: a production application builds a
// neighborhood once and invokes the collective millions of times, so a
// planner service must answer repeated requests for the same
// (topology, graph, algorithm, size class, avoid set) without
// re-negotiating from scratch.
//
// The cache provides two lookups with different concurrency contracts:
//
//   - Get is the allocation-free hit path: the key is digested to one
//     word and probed in an open-addressed index without a lock, and a
//     hit is counted in the calling goroutine's stripe of the hit
//     counter: on a hot entry, it writes no line another client reads.
//   - GetOrBuild is the service path: misses are coalesced through a
//     singleflight table (a thundering herd of identical requests
//     plans exactly once) and gated by admission control — at most
//     MaxPlanners builds run concurrently and at most MaxQueue callers
//     wait for a slot; beyond that requests fail fast with a typed
//     *OverloadError so planning load degrades gracefully instead of
//     collapsing.
//
// Every artifact carries a cost in bytes (estimated resident size), and
// inserting past MaxBytes evicts from the tail of a recency list until
// the budget holds; a hit only marks its entry referenced, and the next
// insert that meets it at the tail moves it to the front (a second
// chance). An insert that would evict first passes the insert gate
// (TinyLFU's frequency test): the new key must have been requested at
// least as often as every victim it would displace, else it is returned
// to its caller uncached. Resident entries count their requests; absent
// keys count their misses in a fixed table indexed by digest; both
// 4-bit counts halve every 32 requests per resident entry, so the gate
// follows a shifting popularity. With no reuse every count is one, ties
// admit, and the cache is plain second-chance. Hit/miss/coalesce/
// eviction/rejection/overload counters are exported through Stats.
//
// The package is deliberately value-agnostic (artifacts are `any`): the
// collective layer owns the keying and cost estimation, keeping the
// dependency arrow collective → plancache.
package plancache

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Key is the content address of one built plan. Two requests with equal
// Keys are guaranteed to want the same artifact: every component is a
// canonical fingerprint of the corresponding input (see
// vgraph.Graph.Fingerprint, topology.Cluster.Fingerprint and
// pattern.AvoidHash for the hashing discipline).
type Key struct {
	// Topo fingerprints the cluster shape plus any algorithm-specific
	// placement (e.g. the leader hierarchy's survivor placement vector).
	Topo uint64
	// Graph fingerprints the neighborhood graph's adjacency.
	Graph uint64
	// Avoid fingerprints the repair avoid set (0 for nil — the
	// unrestricted builders).
	Avoid uint64
	// Algo names the algorithm ("naive", "dh", "cn", "leader", …).
	Algo string
	// Size is the message-size class (SizeClass of the payload bytes);
	// plans that do not specialise on size use class 0.
	Size int
	// Param is the algorithm's integer knob: DH stop threshold L, CN
	// group size K, leaders per node.
	Param int
}

// digest folds the key to the word the cache indexes by: it picks the
// index slot a probe starts at, and a probe compares the full key only
// where the digest matches. Keys whose digests collide sit further
// along one probe sequence.
func (k Key) digest() uint64 {
	h := HashWords(k.Topo, k.Graph, k.Avoid, uint64(k.Size), uint64(k.Param))
	for i := 0; i < len(k.Algo); i++ {
		h = (h ^ uint64(k.Algo[i])) * fnvPrime
	}
	return h
}

func (k Key) String() string {
	return fmt.Sprintf("%s[p=%d,s=%d]@t=%016x/g=%016x/a=%016x",
		k.Algo, k.Param, k.Size, k.Topo, k.Graph, k.Avoid)
}

// SizeClass buckets a payload byte count into a power-of-two class
// index (0 for n ≤ 1): plans are reusable across nearby sizes, so the
// key quantises rather than caching per exact byte count.
func SizeClass(bytes int) int {
	c := 0
	for n := 1; n < bytes; n <<= 1 {
		c++
	}
	return c
}

// FNV-1a constants, word-at-a-time. Fingerprints feed map keys, not
// security decisions, so a fast non-cryptographic mix is appropriate.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// HashWords folds 64-bit words into an FNV-1a style fingerprint. Use it
// to combine component fingerprints into a Key field.
func HashWords(ws ...uint64) uint64 {
	h := fnvOffset
	for _, w := range ws {
		h = (h ^ w) * fnvPrime
	}
	return h
}

// Builder produces the artifact for a missing key, returning the value
// and its estimated resident cost in bytes.
type Builder func() (val any, cost int64, err error)

// ErrOverload is the sentinel matched by errors.Is for admission-control
// rejections.
var ErrOverload = errors.New("plancache: planner overloaded")

// OverloadError reports an admission-control rejection: every planner
// slot was busy and the wait queue was full when the request arrived.
type OverloadError struct {
	// Key is the rejected request.
	Key Key
	// Planners and Queued are the configured bounds in force.
	Planners, Queued int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("plancache: overloaded building %v (%d planners busy, %d waiters queued)",
		e.Key, e.Planners, e.Queued)
}

// Unwrap makes errors.Is(err, ErrOverload) work.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// Config sizes a Cache. The zero value of any field selects its
// default.
type Config struct {
	// MaxBytes bounds the summed artifact cost (default 64 MiB). An
	// artifact costing more than MaxBytes on its own is returned to the
	// caller but not cached.
	MaxBytes int64
	// MaxPlanners bounds concurrent builds on the GetOrBuild path
	// (default GOMAXPROCS).
	MaxPlanners int
	// MaxQueue bounds callers waiting for a planner slot (default
	// 4×MaxPlanners). Admission beyond MaxPlanners+MaxQueue fails with
	// *OverloadError.
	MaxQueue int
	// OnInsert, when non-nil, runs before an artifact is published to
	// the cache — the verify-on-insert hook: return an error to reject
	// the artifact (the build fails with that error and nothing is
	// cached). It runs outside the cache lock, once per successful
	// build.
	OnInsert func(Key, any) error
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from the cache; Misses counts lookups
	// that led the caller to build; Coalesced counts GetOrBuild callers
	// who waited on another caller's in-flight build instead of
	// building; Overloads counts admission-control rejections.
	Hits, Misses, Coalesced, Overloads int64
	// Inserts and Evictions count artifacts entering and leaving the
	// cache; BuildErrors counts failed builds (including OnInsert
	// rejections); TooBig counts artifacts over the whole budget and
	// Rejected those the insert gate refused, both returned uncached.
	Inserts, Evictions, BuildErrors, TooBig, Rejected int64
	// Bytes and Entries describe current occupancy; Capacity echoes
	// MaxBytes.
	Bytes, Capacity int64
	Entries         int
}

// HitRate returns Hits over all completed lookups (hit, miss or
// coalesced), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CoalescingFactor returns the mean number of requests each build
// served — (Misses+Coalesced)/Misses — or 1 before any build.
func (s Stats) CoalescingFactor() float64 {
	if s.Misses == 0 {
		return 1
	}
	return float64(s.Misses+s.Coalesced) / float64(s.Misses)
}

// entry is one cached artifact. A hit reads key, hash, val and cost
// without the lock: they never change once the entry is indexed. prev
// and next, the recency list (most recent at head), belong to c.mu.
type entry struct {
	key        Key
	hash       uint64 // key.digest()
	val        any
	cost       int64
	prev, next *entry
	slot       uint64        // e's index slot; under c.mu
	meta       atomic.Uint32 // referenced bit | request count (≤ maxFreq)
}

// The gate's counts saturate at four bits, as in TinyLFU; the bit above
// marks an entry hit since the gate's walk last passed it.
const (
	maxFreq    = 15
	referenced = 16
)

// hit counts a request served by e: it sets the referenced bit and
// raises the count below its cap, writing nothing once both are done.
func (e *entry) hit() {
	for m := e.meta.Load(); m != referenced|maxFreq; m = e.meta.Load() {
		if e.meta.CompareAndSwap(m, referenced|min(m&maxFreq+1, maxFreq)) {
			return
		}
	}
}

// index is an open-addressed table of entries, probed linearly from
// the digest's low bits. Under c.mu a slot goes from nil to an entry to
// a tombstone, never back: growth publishes a fresh table. So a probe
// without the lock passes every entry resident when it began.
type index struct {
	slots []atomic.Pointer[entry]
	used  int // non-nil slots; under c.mu
}

var tombstone = new(entry) // fills the slot of an evicted entry

const stripeBits = 5 // the hit counter's 32 stripes, each a padded 128 bytes

// stripe picks the calling goroutine's hit-counter stripe by hashing an
// address on its stack: goroutines run on disjoint stacks, so two
// clients rarely share a stripe. Readers sum every stripe.
func stripe() uint64 {
	var probe byte
	return uint64(uintptr(unsafe.Pointer(&probe))) * 0x9e3779b97f4a7c15 >> (64 - stripeBits)
}

// flight is one in-progress build on the singleflight table. Waiters
// block on done; val/err are published before done closes.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a concurrent content-addressed plan cache. Use New.
type Cache struct {
	index       atomic.Pointer[index] // read by every hit
	maxBytes    int64
	maxPlanners int
	maxQueue    int
	onInsert    func(Key, any) error
	_           [64]byte // keeps the first hit stripe off this line

	hits [1 << stripeBits]struct {
		n atomic.Int64
		_ [120]byte
	}

	mu       sync.Mutex
	slotFree *sync.Cond // signalled when a planner slot frees up
	n        int        // resident entries
	inflight map[Key]*flight
	head     *entry // most recent
	tail     *entry // next victim, bar a second chance
	bytes    int64
	active   int // builds holding a planner slot
	queued   int // callers waiting for a slot

	stats Stats // all but Hits, which the stripes count
	// The insert gate: misses of absent keys by digest slot, and the
	// request count (Hits+Misses) at which every count next halves.
	seen  [1 << seenBits]uint8
	ageAt int64
}

// seenBits sizes the gate's miss table: the top bits of a digest pick
// the slot. ageWindow is the gate's window in requests per resident
// entry: every count halves once that many have passed.
const seenBits, ageWindow = 12, 32

// New builds a cache from cfg, applying defaults for zero fields.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.MaxPlanners <= 0 {
		cfg.MaxPlanners = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxPlanners
	}
	c := &Cache{
		inflight:    make(map[Key]*flight),
		maxBytes:    cfg.MaxBytes,
		maxPlanners: cfg.MaxPlanners,
		maxQueue:    cfg.MaxQueue,
		onInsert:    cfg.OnInsert,
	}
	c.slotFree = sync.NewCond(&c.mu)
	c.index.Store(&index{slots: make([]atomic.Pointer[entry], 8)})
	return c
}

// Get is the hit path: it returns the cached artifact for k and whether
// it was present. A hit takes no lock and allocates nothing; a miss is
// counted under the lock.
func (c *Cache) Get(k Key) (any, bool) {
	h := k.digest()
	if e := c.find(h, k); e != nil {
		c.hit(e)
		return e.val, true
	}
	c.mu.Lock()
	c.missLocked(h)
	c.mu.Unlock()
	return nil, false
}

// GetOrBuild returns the artifact for k, coalescing concurrent misses
// (one build serves every waiter) and holding builds to the admission
// bounds. It blocks on channel/condition waits, so it must not be
// called from inside mpirt rank bodies.
func (c *Cache) GetOrBuild(k Key, build Builder) (any, error) {
	h := k.digest()
	if e := c.find(h, k); e != nil {
		c.hit(e)
		return e.val, nil
	}
	c.mu.Lock()
	for {
		if e := c.find(h, k); e != nil {
			c.hit(e)
			c.mu.Unlock()
			return e.val, nil
		}
		if f := c.inflight[k]; f != nil {
			c.stats.Coalesced++
			c.mu.Unlock()
			<-f.done
			return f.val, f.err
		}
		if c.active < c.maxPlanners {
			break
		}
		if c.queued >= c.maxQueue {
			c.stats.Overloads++
			oe := &OverloadError{Key: k, Planners: c.maxPlanners, Queued: c.queued}
			c.mu.Unlock()
			return nil, oe
		}
		c.queued++
		c.slotFree.Wait()
		c.queued--
		// Re-check from the top: the key may have been built, another
		// flight may have started, or the slot may be gone again.
	}
	c.active++
	c.missLocked(h)
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.mu.Unlock()

	v, cost, err := build()
	if err == nil && c.onInsert != nil {
		if verr := c.onInsert(k, v); verr != nil {
			v, err = nil, verr
		}
	}

	c.mu.Lock()
	delete(c.inflight, k)
	c.active--
	c.slotFree.Signal()
	if err == nil {
		c.insertLocked(k, h, v, cost)
	} else {
		c.stats.BuildErrors++
	}
	c.mu.Unlock()

	f.val, f.err = v, err
	close(f.done)
	return v, err
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Hits = c.hitCount()
	s.Bytes = c.bytes
	s.Capacity = c.maxBytes
	s.Entries = c.n
	return s
}

// hit counts a request served by the resident entry e.
func (c *Cache) hit(e *entry) {
	c.hits[stripe()].n.Add(1)
	e.hit()
}

// hitCount sums the hit counter's stripes.
func (c *Cache) hitCount() int64 {
	var n int64
	for i := range c.hits {
		n += c.hits[i].n.Load()
	}
	return n
}

// missLocked counts a miss of the key whose digest is h.
func (c *Cache) missLocked(h uint64) {
	c.stats.Misses++
	if s := c.seenAt(h); *s < maxFreq {
		*s++
	}
}

// seenAt is the gate's miss count of the absent keys whose digest is h.
func (c *Cache) seenAt(h uint64) *uint8 { return &c.seen[h>>(64-seenBits)] }

// insertLocked publishes (k, v), h being k's digest, and evicts past the
// byte budget if the insert gate admits it. k is absent: its one flight
// is the only builder, and it inserts in the critical section that ends
// the flight.
func (c *Cache) insertLocked(k Key, h uint64, v any, cost int64) {
	if cost = max(cost, 0); cost > c.maxBytes {
		c.stats.TooBig++
		return
	}
	slot := c.seenAt(h)
	if c.bytes+cost > c.maxBytes && !c.admitLocked(*slot, cost) {
		c.stats.Rejected++
		return
	}
	e := &entry{key: k, hash: h, val: v, cost: cost}
	e.meta.Store(uint32(*slot))
	*slot = 0
	c.put(e)
	c.pushFront(e)
	c.n++
	c.bytes += cost
	c.stats.Inserts++
	for c.bytes > c.maxBytes && c.tail != e {
		c.evictLocked(c.tail)
	}
}

// admitLocked is the insert gate: whether a key requested freq times
// may displace the tail entries that free cost bytes. A referenced
// entry met on the walk, bar the head, gets its second chance there:
// its bit is cleared and it moves to the front, so the walk vets exactly
// the entries eviction then takes from the tail. A walk gives at most
// c.n chances, however often hits set the bits again. The gate first
// halves every count once the window, ageWindow requests per resident
// entry, is over; the first evicting insert only opens it.
func (c *Cache) admitLocked(freq uint8, cost int64) bool {
	if now := c.hitCount() + c.stats.Misses; now >= c.ageAt {
		if c.ageAt > 0 {
			for e := c.head; e != nil; e = e.next {
				for m := e.meta.Load(); !e.meta.CompareAndSwap(m, m&referenced|(m&maxFreq)>>1); m = e.meta.Load() {
				}
			}
			for i := range c.seen {
				c.seen[i] >>= 1
			}
			freq >>= 1
		}
		c.ageAt = now + ageWindow*int64(c.n)
	}
	for e, need, chances := c.tail, c.bytes+cost-c.maxBytes, c.n; need > 0; {
		if p := e.prev; p != nil && chances > 0 && e.meta.Load()&referenced != 0 {
			chances--
			e.meta.And(^uint32(referenced))
			c.unlink(e)
			c.pushFront(e)
			e = p
			continue
		}
		if freq < uint8(e.meta.Load()&maxFreq) {
			return false
		}
		e, need = e.prev, need-e.cost
	}
	return true
}

func (c *Cache) evictLocked(e *entry) {
	slot := c.seenAt(e.hash)
	*slot = max(*slot, uint8(e.meta.Load()&maxFreq))
	c.unlink(e)
	c.index.Load().slots[e.slot].Store(tombstone)
	c.n--
	c.bytes -= e.cost
	c.stats.Evictions++
}

// find returns the entry of k, whose digest is h, or nil, without the
// lock: an entry evicted meanwhile may be returned, a hit before that.
func (c *Cache) find(h uint64, k Key) *entry {
	t := c.index.Load()
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := t.slots[i].Load(); e == nil || e.hash == h && e.key == k && e != tombstone {
			return e
		}
	}
}

// put indexes the absent entry e. Before it would fill half the table,
// the live entries move to a fresh one, leaving the tombstones behind.
func (c *Cache) put(e *entry) {
	t := c.index.Load()
	if 2*(t.used+1) > len(t.slots) {
		t = &index{slots: make([]atomic.Pointer[entry], 1<<bits.Len(uint(4*c.n+3)))}
		for r := c.head; r != nil; r = r.next {
			t.place(r)
		}
		c.index.Store(t)
	}
	t.place(e)
}

// place stores e in the first nil slot of its probe sequence.
func (t *index) place(e *entry) {
	mask := uint64(len(t.slots) - 1)
	for e.slot = e.hash & mask; t.slots[e.slot].Load() != nil; e.slot = (e.slot + 1) & mask {
	}
	t.slots[e.slot].Store(e)
	t.used++
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
