// Package sweep is a small deterministic worker pool for running
// independent simulations concurrently: conformance cases, fail-stop
// cases, figure cells, chaos seeds. It exists because every simulation
// in this repo is a pure function of its inputs (the mpirt virtual
// clocks never read the host clock and every chaos draw comes from a
// per-run seeded RNG), so runs may execute in any order on any number
// of workers — as long as the *results* come back in input order, the
// output of a parallel sweep is byte-identical to the sequential one.
//
// The determinism contract:
//
//   - Map returns results indexed exactly like its inputs; callers
//     iterate the result slice, never completion order.
//   - Errors are aggregated per item and sorted by item index, so the
//     "first" failure of a parallel sweep is the same failure the
//     sequential loop would have hit first.
//   - Worker count is bounded by GOMAXPROCS: on a single-core runner
//     the sweep degrades to (deterministic, cache-friendly) serial
//     execution; on a multi-core runner it scales without changing a
//     byte of output.
//
// Item functions must not share mutable state; everything they touch
// through the mpirt/conformance/harness APIs is per-run (the only
// process-global state, the mpirt buffer pools, is concurrency-safe
// and content-invisible by construction — see internal/mpirt/pool.go).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// ItemError is one failed item of a Map run.
type ItemError struct {
	// Index is the item's position in the input.
	Index int
	// Err is what its fn returned.
	Err error
}

// Error aggregates every failed item of a Map run, ascending by item
// index. It unwraps to the individual errors, so errors.Is/As see
// through it.
type Error struct {
	Items []ItemError
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d item(s) failed", len(e.Items))
	for i, it := range e.Items {
		if i == 3 {
			fmt.Fprintf(&b, "; …")
			break
		}
		fmt.Fprintf(&b, "; item %d: %v", it.Index, it.Err)
	}
	return b.String()
}

// Unwrap exposes the per-item errors to errors.Is and errors.As.
func (e *Error) Unwrap() []error {
	errs := make([]error, len(e.Items))
	for i, it := range e.Items {
		errs[i] = it.Err
	}
	return errs
}

// First returns the lowest-indexed item error — the failure a
// sequential loop over the same items would have returned.
func (e *Error) First() ItemError { return e.Items[0] }

// Grain is the fewest ranks a plan-construction pass must span to be
// split across two workers: below it the fork costs more than it saves.
// A builder pools its scratch only below it: a planner's back-to-back
// builds reuse theirs, while a larger build's, held live through the
// simulation that follows it, would raise the heap's peak by twice its
// size for a saving of a few zeroed megabytes.
const Grain = 128

// SplitNever and SplitAlways, set only by tests, override Split's rule.
const SplitNever, SplitAlways int8 = 1, 2

// Split reports whether a pass over ranks ranks runs as two halves:
// Grain ranks or more on a second CPU, unless force overrides it.
func Split(ranks int, force int8) bool {
	return force == SplitAlways || force == 0 && ranks >= Grain && runtime.GOMAXPROCS(0) >= 2
}

// Both runs first here and second on a second goroutine, and returns
// once both have: the one join point of the split plan builders. The
// helper is CPU-bound, takes no lock and never enters mpirt, so the
// wait ends in bounded host time on any engine, including the FT repair
// builds inside rank bodies.
func Both(first, second func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { second(); wg.Done() }()
	first()
	wg.Wait()
}

// Workers returns the worker count Map will use for n items.
func Workers(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n), 1)
}

// Map runs fn(0) … fn(n-1) on up to GOMAXPROCS workers and returns the
// results in input order. Item errors do not stop the other items;
// they are collected into a single *Error (sorted by index), and the
// failed items' result slots hold the zero value. Cancelling ctx stops
// the dispatch of not-yet-started items (marking them with ctx.Err());
// items already running are finished, not interrupted. A panicking fn
// re-panics in the caller after the remaining workers drain, so a
// crashing simulation fails the sweep loudly instead of hanging it.
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var panicked atomic.Pointer[panicValue]
	var wg sync.WaitGroup
	for w := 0; w < Workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if panicked.Load() != nil {
					errs[i] = fmt.Errorf("sweep: item not run: an earlier item panicked")
					continue
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							panicked.CompareAndSwap(nil, &panicValue{rec})
							errs[i] = fmt.Errorf("sweep: item %d panicked: %v", i, rec)
						}
					}()
					results[i], errs[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
	var agg *Error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if agg == nil {
			agg = &Error{}
		}
		agg.Items = append(agg.Items, ItemError{Index: i, Err: err})
	}
	if agg != nil {
		return results, agg
	}
	return results, nil
}

// panicValue boxes a recovered panic payload for the atomic pointer.
type panicValue struct{ v any }
