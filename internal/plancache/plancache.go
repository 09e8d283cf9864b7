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
//     word before the lock, then one mutex acquisition, one word-keyed
//     map probe, an intrusive LRU touch. It is safe from any goroutine
//     and never blocks beyond the mutex.
//   - GetOrBuild is the service path: misses are coalesced through a
//     singleflight table (a thundering herd of identical requests
//     plans exactly once) and gated by admission control — at most
//     MaxPlanners builds run concurrently and at most MaxQueue callers
//     wait for a slot; beyond that requests fail fast with a typed
//     *OverloadError so planning load degrades gracefully instead of
//     collapsing.
//
// Every artifact carries a cost in bytes (estimated resident size), and
// inserting past MaxBytes evicts from the LRU end until the budget
// holds. An insert that would evict first passes the insert gate
// (TinyLFU's frequency test): the new key must have been requested at
// least as often as every victim it would displace, else it is returned
// to its caller uncached. Resident entries count their requests;
// absent keys count their misses in a fixed table indexed by digest;
// both counts halve every 32 requests per resident entry, so the
// gate follows a shifting popularity. With no reuse every count is
// one, ties admit, and the cache is plain LRU. Hit/miss/coalesce/
// eviction/rejection/overload counters are exported through Stats.
//
// The package is deliberately value-agnostic (artifacts are `any`): the
// collective layer owns the keying and cost estimation, keeping the
// dependency arrow collective → plancache.
package plancache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
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

// digest folds the key to the word the cache indexes by. Every lookup
// computes it before taking the lock, so the mutex covers a one-word
// map probe instead of hashing and comparing a 56-byte struct with a
// string in it: two clients on one cache stop convoying on the lock
// (EXPERIMENTS.md, "The planner hit path under two clients"). Keys
// whose digests collide share a map slot and chain through entry.chain.
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

// entry is one cached artifact on the intrusive LRU list (MRU at head).
type entry struct {
	key        Key
	hash       uint64 // key.digest()
	val        any
	cost       int64
	prev, next *entry
	freq       uint64 // requests, halved with the gate's window; touch writes this line
	chain      *entry // next entry with the same digest
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
	mu       sync.Mutex
	slotFree *sync.Cond        // signalled when a planner slot frees up
	entries  map[uint64]*entry // by Key.digest(); collisions chain
	n        int               // resident entries
	inflight map[Key]*flight
	head     *entry // MRU
	tail     *entry // LRU
	bytes    int64
	active   int // builds holding a planner slot
	queued   int // callers waiting for a slot

	maxBytes    int64
	maxPlanners int
	maxQueue    int
	onInsert    func(Key, any) error

	stats Stats
	// The insert gate: misses of absent keys by digest slot, and the
	// request count (Hits+Misses) at which every count next halves.
	seen  [1 << seenBits]uint64
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
		entries:     make(map[uint64]*entry),
		inflight:    make(map[Key]*flight),
		maxBytes:    cfg.MaxBytes,
		maxPlanners: cfg.MaxPlanners,
		maxQueue:    cfg.MaxQueue,
		onInsert:    cfg.OnInsert,
	}
	c.slotFree = sync.NewCond(&c.mu)
	return c
}

// Get is the hit path: it returns the cached artifact for k and whether
// it was present, touching the LRU on a hit. It allocates nothing.
func (c *Cache) Get(k Key) (any, bool) {
	h := k.digest()
	c.mu.Lock()
	e := c.find(h, k)
	if e == nil {
		c.missLocked(h)
		c.mu.Unlock()
		return nil, false
	}
	c.stats.Hits++
	c.touch(e)
	v := e.val
	c.mu.Unlock()
	return v, true
}

// GetOrBuild returns the artifact for k, coalescing concurrent misses
// (one build serves every waiter) and holding builds to the admission
// bounds. It blocks on channel/condition waits, so it must not be
// called from inside mpirt rank bodies.
func (c *Cache) GetOrBuild(k Key, build Builder) (any, error) {
	h := k.digest()
	c.mu.Lock()
	for {
		if e := c.find(h, k); e != nil {
			c.stats.Hits++
			c.touch(e)
			v := e.val
			c.mu.Unlock()
			return v, nil
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
	s.Bytes = c.bytes
	s.Capacity = c.maxBytes
	s.Entries = c.n
	return s
}

// missLocked counts a miss of the key whose digest is h.
func (c *Cache) missLocked(h uint64) {
	c.stats.Misses++
	*c.seenAt(h)++
}

// seenAt is the gate's miss count of the absent keys whose digest is h.
func (c *Cache) seenAt(h uint64) *uint64 { return &c.seen[h>>(64-seenBits)] }

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
	e := &entry{key: k, hash: h, val: v, cost: cost, freq: *slot, chain: c.entries[h]}
	*slot = 0
	c.entries[h] = e
	c.n++
	c.pushFront(e)
	c.bytes += cost
	c.stats.Inserts++
	for c.bytes > c.maxBytes && c.tail != e {
		c.evictLocked(c.tail)
	}
}

// admitLocked is the insert gate: whether a key requested freq times
// may displace the LRU-tail entries that free cost bytes. It first
// halves every count once the window, ageWindow requests per resident
// entry, is over; the first evicting insert only opens the window.
func (c *Cache) admitLocked(freq uint64, cost int64) bool {
	if now := c.stats.Hits + c.stats.Misses; now >= c.ageAt {
		if c.ageAt > 0 {
			for e := c.head; e != nil; e = e.next {
				e.freq >>= 1
			}
			for i := range c.seen {
				c.seen[i] >>= 1
			}
			freq >>= 1
		}
		c.ageAt = now + ageWindow*int64(c.n)
	}
	for e, need := c.tail, c.bytes+cost-c.maxBytes; need > 0; e, need = e.prev, need-e.cost {
		if freq < e.freq {
			return false
		}
	}
	return true
}

func (c *Cache) evictLocked(e *entry) {
	slot := c.seenAt(e.hash)
	*slot = max(*slot, e.freq)
	c.unlink(e)
	if head := c.entries[e.hash]; head != e {
		for head.chain != e {
			head = head.chain
		}
		head.chain = e.chain
	} else if e.chain != nil {
		c.entries[e.hash] = e.chain
	} else {
		delete(c.entries, e.hash)
	}
	c.n--
	c.bytes -= e.cost
	c.stats.Evictions++
}

// find returns the entry of k, whose digest is h, or nil.
func (c *Cache) find(h uint64, k Key) *entry {
	e := c.entries[h]
	for e != nil && e.key != k {
		e = e.chain
	}
	return e
}

// touch counts a request of e and moves e to the MRU end.
func (c *Cache) touch(e *entry) {
	e.freq++
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
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
