package plancache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func key(i int) Key {
	return Key{Topo: uint64(i) * 31, Graph: uint64(i), Algo: "t", Param: i}
}

// peek reports whether k is resident, returning its artifact, without
// touching the LRU or the counters.
func (c *Cache) peek(k Key) (any, bool) {
	h := k.digest()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.find(h, k); e != nil {
		return e.val, true
	}
	return nil, false
}

func TestGetMissThenHit(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	want := "artifact"
	v, err := c.GetOrBuild(k, func() (any, int64, error) { return want, 100, nil })
	if err != nil || v != want {
		t.Fatalf("GetOrBuild = %v, %v", v, err)
	}
	v, ok := c.Get(k)
	if !ok || v != want {
		t.Fatalf("Get after insert = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSingleflightStress is the thundering-herd contract under -race:
// many goroutines request one key concurrently; exactly one build runs
// and every caller sees the identical artifact.
func TestSingleflightStress(t *testing.T) {
	const goroutines = 64
	c := New(Config{MaxBytes: 1 << 20, MaxPlanners: goroutines, MaxQueue: goroutines})
	var builds atomic.Int64
	k := key(7)
	build := func() (any, int64, error) {
		builds.Add(1)
		// Hold the flight open long enough for the herd to pile on.
		time.Sleep(20 * time.Millisecond)
		return &struct{ x int }{7}, 64, nil
	}
	results := make([]any, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.GetOrBuild(k, build)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent requests ran %d builds, want 1", goroutines, n)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different artifact", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("Hits+Coalesced = %d, want %d", st.Hits+st.Coalesced, goroutines-1)
	}
}

// TestEvictionBudgetProperty: whatever the insertion sequence, the
// cache never exceeds its byte budget.
func TestEvictionBudgetProperty(t *testing.T) {
	prop := func(seed int64, budgetSmall uint8) bool {
		budget := int64(budgetSmall)%4096 + 64
		c := New(Config{MaxBytes: budget})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			k := key(rng.Intn(50))
			cost := int64(rng.Intn(2000))
			if rng.Intn(3) == 0 {
				c.Get(k)
			} else {
				_, _ = c.GetOrBuild(k, func() (any, int64, error) { return i, cost, nil })
			}
			if st := c.Stats(); st.Bytes > budget {
				t.Logf("seed %d: bytes %d exceeded budget %d after %d ops", seed, st.Bytes, budget, i+1)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestZipfHotKeysSurvive: replaying a Zipf-skewed request stream
// through a cache that can only hold a fraction of the population must
// keep the hottest keys resident.
func TestZipfHotKeysSurvive(t *testing.T) {
	const population = 200
	const cost = 100
	// Budget for ~a quarter of the population.
	c := New(Config{MaxBytes: population / 4 * cost})
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.3, 1, population-1)
	for i := 0; i < 20000; i++ {
		k := key(int(zipf.Uint64()))
		_, _ = c.GetOrBuild(k, func() (any, int64, error) { return i, cost, nil })
	}
	for hot := 0; hot < 3; hot++ {
		if _, ok := c.peek(key(hot)); !ok {
			t.Errorf("hot key %d evicted; stats %+v", hot, c.Stats())
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("replay never evicted — budget too large for the property to mean anything")
	}
	if st.HitRate() < 0.8 {
		t.Errorf("Zipf(1.3) replay hit rate %.2f, want ≥ 0.8", st.HitRate())
	}
}

// TestAdmissionOverload: with every planner slot busy and the queue
// full, GetOrBuild fails fast with the typed overload error.
func TestAdmissionOverload(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, MaxPlanners: 1, MaxQueue: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = c.GetOrBuild(key(1), func() (any, int64, error) {
			close(started)
			<-release
			return 1, 8, nil
		})
	}()
	<-started
	// Fill the single queue slot with a second distinct key.
	queued := make(chan error, 1)
	go func() {
		_, err := c.GetOrBuild(key(2), func() (any, int64, error) { return 2, 8, nil })
		queued <- err
	}()
	// Wait until the waiter is actually queued.
	for {
		c.mu.Lock()
		q := c.queued
		c.mu.Unlock()
		if q == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, err := c.GetOrBuild(key(3), func() (any, int64, error) { return 3, 8, nil })
	if err == nil {
		t.Fatal("third concurrent request admitted past planners=1 queue=1")
	}
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Planners != 1 {
		t.Fatalf("err = %#v, want *OverloadError with Planners=1", err)
	}
	close(release)
	if qerr := <-queued; qerr != nil {
		t.Fatalf("queued request failed: %v", qerr)
	}
	if c.Stats().Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", c.Stats().Overloads)
	}
}

// TestOnInsertHook: a rejecting hook fails the build and caches
// nothing; an accepting hook runs once per build.
func TestOnInsertHook(t *testing.T) {
	var calls atomic.Int64
	reject := errors.New("bad plan")
	c := New(Config{MaxBytes: 1 << 20, OnInsert: func(k Key, v any) error {
		calls.Add(1)
		if k.Param == 13 {
			return reject
		}
		return nil
	}})
	if _, err := c.GetOrBuild(key(13), func() (any, int64, error) { return 1, 8, nil }); !errors.Is(err, reject) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if _, ok := c.peek(key(13)); ok {
		t.Fatal("rejected artifact was cached")
	}
	if _, err := c.GetOrBuild(key(1), func() (any, int64, error) { return 1, 8, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrBuild(key(1), func() (any, int64, error) { return 1, 8, nil }); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("hook ran %d times, want 2 (one per build)", got)
	}
	st := c.Stats()
	if st.BuildErrors != 1 {
		t.Fatalf("BuildErrors = %d, want 1", st.BuildErrors)
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	if _, err := c.GetOrBuild(key(1), func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failed flight must not poison the key.
	v, err := c.GetOrBuild(key(1), func() (any, int64, error) { return "ok", 8, nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

func TestTooBigBypassesCache(t *testing.T) {
	c := New(Config{MaxBytes: 100})
	v, err := c.GetOrBuild(key(1), func() (any, int64, error) { return "huge", 1000, nil })
	if err != nil || v != "huge" {
		t.Fatalf("got %v, %v", v, err)
	}
	if _, ok := c.peek(key(1)); ok {
		t.Fatal("over-budget artifact was cached")
	}
	if c.Stats().TooBig != 1 {
		t.Fatalf("TooBig = %d", c.Stats().TooBig)
	}
}

// TestGetZeroAlloc pins the hit path's allocation freedom; `make
// alloc-guard` runs it beside the runtime's TestHotPathsZeroAlloc.
func TestGetZeroAlloc(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(1)
	if _, err := c.GetOrBuild(k, func() (any, int64, error) { return "v", 8, nil }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(k); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %v per op, want 0", allocs)
	}
}

// TestGetOrBuildHitZeroAlloc is TestGetZeroAlloc's row for the
// service's own path: a GetOrBuild hit allocates nothing either.
func TestGetOrBuildHitZeroAlloc(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(1)
	build := func() (any, int64, error) { return "v", 8, nil }
	if _, err := c.GetOrBuild(k, build); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if v, err := c.GetOrBuild(k, build); err != nil || v != "v" {
			t.Fatalf("hit = %v, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GetOrBuild hit allocates %v per op, want 0", allocs)
	}
}

// TestHitPathTakesNoLock: a hit on a resident key, through Get and
// through GetOrBuild, returns while another goroutine holds the lock.
func TestHitPathTakesNoLock(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(1)
	if _, err := c.GetOrBuild(k, func() (any, int64, error) { return "v", 8, nil }); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		if v, ok := c.Get(k); !ok || v != "v" {
			done <- fmt.Errorf("Get = %v, %v", v, ok)
			return
		}
		v, err := c.GetOrBuild(k, func() (any, int64, error) { return nil, 0, errors.New("rebuilt a resident key") })
		if err == nil && v != "v" {
			err = fmt.Errorf("GetOrBuild = %v", v)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a hit on a resident key waited for the cache lock")
	}
}

// TestConcurrentAccountingExact: eight clients hit, miss, coalesce,
// insert and evict at once under Zipf(1.1) at a quarter budget. Every
// request is counted exactly once, every artifact served is its own
// key's, the budget holds, and Entries counts exactly the resident keys.
func TestConcurrentAccountingExact(t *testing.T) {
	const population, clients, requests = 300, 8, 4000
	c := New(Config{MaxBytes: population / 4 * 10, MaxPlanners: clients})
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(w))), 1.1, 1, population-1)
			for i := 0; i < requests; i++ {
				k := key(int(zipf.Uint64()))
				var v any
				var ok bool
				if i%3 == 0 {
					v, ok = c.Get(k)
				} else {
					var err error
					v, err = c.GetOrBuild(k, func() (any, int64, error) { return k.Param, int64(5 + k.Param%11), nil })
					ok = err == nil
					if err != nil {
						t.Error(err)
						return
					}
				}
				if ok && v != k.Param {
					t.Errorf("key %d served the artifact of key %v", k.Param, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if n := st.Hits + st.Misses + st.Coalesced; n != clients*requests {
		t.Errorf("Hits+Misses+Coalesced = %d, want the %d requests issued: %+v", n, clients*requests, st)
	}
	if st.Bytes > st.Capacity {
		t.Errorf("resident bytes %d over the budget %d", st.Bytes, st.Capacity)
	}
	resident := 0
	for i := 0; i < population; i++ {
		if _, ok := c.peek(key(i)); ok {
			resident++
		}
	}
	if st.Entries != resident || st.Evictions == 0 {
		t.Errorf("Entries = %d, %d keys resident; stats %+v", st.Entries, resident, st)
	}
}

func TestLRUOrder(t *testing.T) {
	// Budget for exactly two unit-cost entries: touching key 1 must
	// make key 2 the eviction victim when key 3 arrives.
	c := New(Config{MaxBytes: 2})
	for i := 1; i <= 2; i++ {
		if _, err := c.GetOrBuild(key(i), func() (any, int64, error) { return i, 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 missing")
	}
	if _, err := c.GetOrBuild(key(3), func() (any, int64, error) { return 3, 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.peek(key(2)); ok {
		t.Fatal("LRU victim (key 2) survived")
	}
	for _, i := range []int{1, 3} {
		if _, ok := c.peek(key(i)); !ok {
			t.Fatalf("key %d evicted, want resident", i)
		}
	}
}

// TestInsertGateScanResistance: a burst of one-off keys ten times the
// capacity, each requested once, cannot displace a hot set whose every
// key was requested again twice — LRU alone would have flushed it.
func TestInsertGateScanResistance(t *testing.T) {
	const capacity = 8
	c := New(Config{MaxBytes: capacity})
	unit := func() (any, int64, error) { return 0, 1, nil }
	for i := 0; i < capacity; i++ {
		if _, err := c.GetOrBuild(key(i), unit); err != nil {
			t.Fatal(err)
		}
	}
	for touch := 0; touch < 2; touch++ {
		for i := 0; i < capacity; i++ {
			if _, ok := c.Get(key(i)); !ok {
				t.Fatalf("hot key %d missing before the burst", i)
			}
		}
	}
	for i := 0; i < 10*capacity; i++ {
		if _, err := c.GetOrBuild(key(1000+i), unit); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < capacity; i++ {
		if _, ok := c.peek(key(i)); !ok {
			t.Errorf("hot key %d flushed by the one-off burst", i)
		}
	}
	if st := c.Stats(); st.Rejected != 10*capacity || st.Evictions != 0 {
		t.Fatalf("stats %+v, want every one-off key rejected and no eviction", st)
	}
}

// TestInsertGateDeterminism: the gate's counts are a pure function of
// the request sequence, so two caches fed one single-client sequence
// end in the same state.
func TestInsertGateDeterminism(t *testing.T) {
	const population = 300
	var caches [2]*Cache
	for i := range caches {
		c := New(Config{MaxBytes: population / 4 * 10})
		rng := rand.New(rand.NewSource(5))
		zipf := rand.NewZipf(rng, 1.1, 1, population-1)
		for j := 0; j < 20*population; j++ {
			k := key(int(zipf.Uint64()))
			cost := int64(5 + k.Param%11)
			if _, err := c.GetOrBuild(k, func() (any, int64, error) { return k.Param, cost, nil }); err != nil {
				t.Fatal(err)
			}
		}
		caches[i] = c
	}
	a, b := caches[0].Stats(), caches[1].Stats()
	if a != b {
		t.Fatalf("stats diverged:\n%+v\n%+v", a, b)
	}
	if a.Rejected == 0 || a.Evictions == 0 {
		t.Fatalf("stats %+v: the sequence never exercised the gate", a)
	}
	for i := 0; i < population; i++ {
		_, inA := caches[0].peek(key(i))
		_, inB := caches[1].peek(key(i))
		if inA != inB {
			t.Fatalf("key %d resident in one cache only (%v, %v)", i, inA, inB)
		}
	}
}

// TestInsertGateRefusal: an artifact the gate refuses still reaches its
// caller, after one OnInsert call, and is counted and not cached. A key's second miss ties with the LRU victim's count
// and is admitted.
func TestInsertGateRefusal(t *testing.T) {
	var hooks atomic.Int64
	c := New(Config{MaxBytes: 2, OnInsert: func(Key, any) error { hooks.Add(1); return nil }})
	for i := 1; i <= 2; i++ {
		if _, err := c.GetOrBuild(key(i), func() (any, int64, error) { return i, 1, nil }); err != nil {
			t.Fatal(err)
		}
		c.Get(key(i)) // two requests each, key 1 the LRU end
	}
	hooks.Store(0)
	k, want := key(3), &struct{ id int }{3}
	v, err := c.GetOrBuild(k, func() (any, int64, error) { return want, 1, nil })
	if err != nil || v != want {
		t.Fatalf("refused build of %v returned %v, %v; want the built artifact", k, v, err)
	}
	if n := hooks.Load(); n != 1 {
		t.Fatalf("OnInsert ran %d times for one refused build, want 1", n)
	}
	if _, ok := c.peek(k); ok {
		t.Fatalf("refused artifact of %v was cached", k)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Inserts != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v after refusing %v", st, k)
	}
	if _, err := c.GetOrBuild(key(3), func() (any, int64, error) { return 3, 1, nil }); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, true} {
		if _, ok := c.peek(key(i + 1)); ok != want {
			t.Fatalf("after the tie, key %d resident = %v, want %v; stats %+v", i+1, ok, want, c.Stats())
		}
	}
}

// TestInsertGateRemembersEvicted: an evicted entry's count goes back to
// the miss table, so a hot key pushed out by an equally hot one wins its
// place back on its next request instead of starting over at one.
func TestInsertGateRemembersEvicted(t *testing.T) {
	c := New(Config{MaxBytes: 1})
	unit := func() (any, int64, error) { return 0, 1, nil }
	request := func(i int) bool {
		t.Helper()
		if _, err := c.GetOrBuild(key(i), unit); err != nil {
			t.Fatal(err)
		}
		_, ok := c.peek(key(i))
		return ok
	}
	for j := 0; j < 10; j++ {
		request(1)
	}
	for j := 1; j < 10; j++ {
		if request(2) {
			t.Fatalf("key 2 admitted on its request %d, before matching key 1's 10", j)
		}
	}
	if !request(2) {
		t.Fatal("key 2's 10th request tied key 1's count and was refused")
	}
	if !request(1) {
		t.Fatalf("evicted key 1 came back with a fresh count; stats %+v", c.Stats())
	}
}

// TestInsertGateForgets: the counts halve as requests pass, so a new
// working set displaces an old one that was requested far more often
// but no longer is, within a few windows rather than after matching
// the old counts.
func TestInsertGateForgets(t *testing.T) {
	const capacity, oldHits = 8, 1000
	c := New(Config{MaxBytes: capacity})
	unit := func() (any, int64, error) { return 0, 1, nil }
	for i := 0; i < capacity; i++ {
		for j := 0; j < oldHits; j++ {
			if _, err := c.GetOrBuild(key(i), unit); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 1; round <= oldHits/4; round++ {
		resident := 0
		for i := 100; i < 100+capacity; i++ {
			if _, err := c.GetOrBuild(key(i), unit); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.peek(key(i)); ok {
				resident++
			}
		}
		if resident == capacity {
			t.Logf("new working set resident after %d rounds", round)
			return
		}
	}
	t.Fatalf("after %d rounds the old working set still holds the cache: %+v", oldHits/4, c.Stats())
}

// TestInsertGateReplayFloors: at a quarter budget under Zipf(1.1) — the
// planner-zipf churn cache, and its 256-key sibling on the simulation
// workloads — the gate lifts the hit rate above plain LRU's 0.75 and
// 0.83 after a warm-up.
func TestInsertGateReplayFloors(t *testing.T) {
	for _, tc := range []struct {
		population int
		floor      float64
	}{{256, 0.79}, {2000, 0.85}} {
		const cost = 100
		c := New(Config{MaxBytes: int64(tc.population / 4 * cost)})
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(tc.population-1))
		var warm Stats
		for i := 0; i < 100*tc.population; i++ {
			if i == 20*tc.population {
				warm = c.Stats()
			}
			_, _ = c.GetOrBuild(key(int(zipf.Uint64())), func() (any, int64, error) { return i, cost, nil })
		}
		st := c.Stats()
		hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
		if rate := float64(hits) / float64(hits+misses); rate < tc.floor {
			t.Errorf("%d keys: hit rate %.4f after warm-up, floor %.2f", tc.population, rate, tc.floor)
		} else {
			t.Logf("%d keys: hit rate %.4f after warm-up (floor %.2f)", tc.population, rate, tc.floor)
		}
	}
}

// TestDigestCollisionsChain drives the index with keys forced onto one
// digest (no two real keys are known to collide): each stays findable
// under its own identity along the one probe sequence, and evicting the
// sequence's first, middle and last entry in any order leaves the rest
// findable behind tombstones, one live slot per resident key, and the
// occupancy exact.
func TestDigestCollisionsChain(t *testing.T) {
	const h = 7
	for _, order := range [][]int{{1, 2, 3}, {3, 2, 1}, {2, 1, 3}, {2, 3, 1}} {
		c := New(Config{MaxBytes: 1 << 20})
		live := 0
		resident := [4]bool{}
		check := func(when string) {
			t.Helper()
			for i := 1; i <= 3; i++ {
				e := c.find(h, key(i))
				if (e != nil) != resident[i] || (e != nil && e.val != i) {
					t.Fatalf("order %v, %s: key %d -> %+v, want resident=%v", order, when, i, e, resident[i])
				}
			}
			slots := 0
			ix := c.index.Load()
			for i := range ix.slots {
				if e := ix.slots[i].Load(); e != nil && e != tombstone {
					slots++
				}
			}
			if st := c.Stats(); st.Entries != live || st.Bytes != int64(10*live) || slots != live {
				t.Fatalf("order %v, %s: %+v in %d live slots, want %d entries in as many", order, when, st, slots, live)
			}
		}
		for i := 1; i <= 3; i++ {
			c.insertLocked(key(i), h, i, 10)
			resident[i] = true
			live++
			check(fmt.Sprintf("after inserting %d", i))
		}
		for _, victim := range order {
			c.evictLocked(c.find(h, key(victim)))
			resident[victim] = false
			live--
			check(fmt.Sprintf("after evicting %d", victim))
		}
	}
}

// TestDigestCoversEveryField: a field the digest skipped would still
// look up correctly (colliding keys chain) but pile a whole key family
// onto one slot.
func TestDigestCoversEveryField(t *testing.T) {
	base := Key{Topo: 1, Graph: 2, Avoid: 3, Algo: "dh", Size: 4, Param: 5}
	for field, change := range map[string]func(*Key){
		"Topo":  func(k *Key) { k.Topo++ },
		"Graph": func(k *Key) { k.Graph++ },
		"Avoid": func(k *Key) { k.Avoid++ },
		"Algo":  func(k *Key) { k.Algo = "cn" },
		"Size":  func(k *Key) { k.Size++ },
		"Param": func(k *Key) { k.Param++ },
	} {
		k := base
		change(&k)
		if k.digest() == base.digest() {
			t.Errorf("digest ignores %s", field)
		}
	}
}

func TestSizeClass(t *testing.T) {
	cases := []struct{ bytes, class int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {1024, 10}, {1025, 11},
	}
	for _, tc := range cases {
		if got := SizeClass(tc.bytes); got != tc.class {
			t.Errorf("SizeClass(%d) = %d, want %d", tc.bytes, got, tc.class)
		}
	}
}

func TestOverloadErrorMessage(t *testing.T) {
	e := &OverloadError{Key: key(5), Planners: 4, Queued: 16}
	if msg := e.Error(); msg == "" {
		t.Fatal("empty message")
	} else if want := fmt.Sprintf("%d planners", 4); !contains(msg, want) {
		t.Fatalf("message %q missing %q", msg, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkGetHit(b *testing.B) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(1)
	if _, err := c.GetOrBuild(k, func() (any, int64, error) { return "v", 8, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(k)
	}
}

// BenchmarkGetHitParallel is planner-zipf's hot phase in miniature:
// every client draws Zipf(1.1) keys over 2 000 resident plans through
// Get, so it times the hit path alone under as many clients as -cpu.
func BenchmarkGetHitParallel(b *testing.B) {
	const population = 2000
	c := New(Config{MaxBytes: 1 << 30})
	for i := 0; i < population; i++ {
		if _, err := c.GetOrBuild(key(i), func() (any, int64, error) { return i, 100, nil }); err != nil {
			b.Fatal(err)
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, population-1)
	keys := make([]Key, 1<<14)
	for i := range keys {
		keys[i] = key(int(zipf.Uint64()))
	}
	var clients atomic.Int64
	runtime.GC() // the set-up's garbage is not the hit path's
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(clients.Add(1)) * 4099; pb.Next(); i++ {
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				b.Error("miss on a resident key")
				return
			}
		}
	})
}

// BenchmarkChurnZipf is planner-zipf's churn phase in miniature: two
// clients draw Zipf(1.1) keys over 2 000 plans through GetOrBuild on a
// cache that holds a quarter of them, and a miss builds a synthetic
// artifact. It reports the hit rate beside ns/op.
func BenchmarkChurnZipf(b *testing.B) {
	const population, cost, clients = 2000, 100, 2
	c := New(Config{MaxBytes: population / 4 * cost})
	build := func() (any, int64, error) { return new([cost]byte), cost, nil }
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(w))), 1.1, 1, population-1)
			for i := w; i < b.N; i += clients {
				if _, err := c.GetOrBuild(key(int(zipf.Uint64())), build); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.ReportMetric(c.Stats().HitRate(), "hit-rate")
}
