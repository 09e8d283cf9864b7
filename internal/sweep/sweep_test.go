package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapOrder pins the determinism contract: results come back in
// input order regardless of completion order.
func TestMapOrder(t *testing.T) {
	n := 100
	got, err := Map(context.Background(), n, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapErrors pins error aggregation: failed items keep their index,
// ascending, other items still run, and First matches the sequential
// loop's first failure.
func TestMapErrors(t *testing.T) {
	sentinel := errors.New("boom")
	got, err := Map(context.Background(), 10, func(i int) (int, error) {
		if i%3 == 1 { // items 1, 4, 7
			return 0, fmt.Errorf("item %d: %w", i, sentinel)
		}
		return i, nil
	})
	var agg *Error
	if !errors.As(err, &agg) {
		t.Fatalf("Map error = %v, want *sweep.Error", err)
	}
	if len(agg.Items) != 3 {
		t.Fatalf("got %d item errors, want 3: %v", len(agg.Items), agg)
	}
	for k, want := range []int{1, 4, 7} {
		if agg.Items[k].Index != want {
			t.Errorf("Items[%d].Index = %d, want %d (must be ascending)", k, agg.Items[k].Index, want)
		}
	}
	if agg.First().Index != 1 {
		t.Errorf("First().Index = %d, want 1", agg.First().Index)
	}
	if want := "sweep: 3 item(s) failed; item 1: item 1: boom; item 4: item 4: boom; item 7: item 7: boom"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is(err, sentinel) = false, want true (Unwrap must expose item errors)")
	}
	if got[2] != 2 || got[9] != 9 {
		t.Errorf("successful items lost: got[2]=%d got[9]=%d", got[2], got[9])
	}
	if got[1] != 0 {
		t.Errorf("failed item slot = %d, want zero value", got[1])
	}
}

// TestMapCancel pins cancellation: once ctx is cancelled, undispatched
// items are marked with ctx.Err() instead of running.
func TestMapCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		return i, nil
	})
	var agg *Error
	if !errors.As(err, &agg) {
		t.Fatalf("Map after cancel: err = %v, want *sweep.Error", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false")
	}
	if int(ran.Load()) == 1000 {
		t.Errorf("cancellation did not stop dispatch: all 1000 items ran")
	}
}

// TestMapPanic pins panic propagation: a panicking item re-panics in
// the caller after the pool drains, rather than crashing a worker
// goroutine (which would take the whole process down silently).
func TestMapPanic(t *testing.T) {
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatalf("Map swallowed the item panic")
		}
		if s, ok := rec.(string); !ok || s != "kaboom" {
			t.Fatalf("recovered %v, want original panic value", rec)
		}
	}()
	Map(context.Background(), 50, func(i int) (int, error) {
		if i == 3 {
			panic("kaboom")
		}
		return i, nil
	})
}

// TestWorkersBound pins the pool bound: never more than GOMAXPROCS,
// never more than n, never less than 1.
func TestWorkersBound(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if w := Workers(1000); w != max {
		t.Errorf("Workers(1000) = %d, want GOMAXPROCS %d", w, max)
	}
	if w := Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d, want 1", w)
	}
	if w := Workers(0); w != 1 {
		t.Errorf("Workers(0) = %d, want 1", w)
	}
}

// TestMapConcurrent verifies items genuinely overlap when more than
// one worker is available (skipped on a single-CPU runner, where the
// pool legitimately degrades to serial execution).
func TestMapConcurrent(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU: pool runs serially")
	}
	var inflight, peak atomic.Int64
	var barrier sync.WaitGroup
	barrier.Add(2)
	Map(context.Background(), 2, func(i int) (int, error) {
		cur := inflight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		// Rendezvous: both items must be in flight at once.
		barrier.Done()
		barrier.Wait()
		inflight.Add(-1)
		return i, nil
	})
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want >= 2", peak.Load())
	}
}

// TestSplitAndBoth: Split follows the grain and the CPU count unless a
// test forces it, and Both returns only once both halves have run.
func TestSplitAndBoth(t *testing.T) {
	two := runtime.GOMAXPROCS(0) >= 2
	for _, tc := range []struct {
		ranks int
		force int8
		want  bool
	}{{Grain - 1, 0, false}, {Grain, 0, two}, {1 << 20, SplitNever, false}, {1, SplitAlways, true}} {
		if got := Split(tc.ranks, tc.force); got != tc.want {
			t.Errorf("Split(%d, %d) = %v, want %v", tc.ranks, tc.force, got, tc.want)
		}
	}
	var a, b bool
	Both(func() { a = true }, func() { b = true })
	if !a || !b {
		t.Errorf("Both returned with first run %v, second run %v", a, b)
	}
}
