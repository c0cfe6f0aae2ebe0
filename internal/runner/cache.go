package runner

import (
	"context"
	"sync"
	"time"
)

// Cache memoizes the results of expensive computations keyed by K, with
// singleflight deduplication: concurrent Do calls for the same key block
// on one execution and share its result. Successful results are retained
// (up to the entry bound); failed flights are forgotten so a later call
// retries instead of caching the error.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flight[V]
	order   []K // insertion order, for FIFO eviction
	max     int // max retained entries; <= 0 means unbounded
}

type flight[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// NewCache returns a cache retaining at most maxEntries successful
// results; maxEntries <= 0 disables the bound. In-flight computations are
// never evicted.
func NewCache[K comparable, V any](maxEntries int) *Cache[K, V] {
	return &Cache[K, V]{entries: make(map[K]*flight[V]), max: maxEntries}
}

// Do returns the cached value for key, or runs fn to compute it. If
// another Do for the same key is already in flight, the call waits for it
// and shares its outcome instead of recomputing. Waiters whose context is
// cancelled return early with the context error; the in-flight
// computation itself keeps the context of the caller that started it.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func(ctx context.Context) (V, error)) (V, error) {
	c.mu.Lock()
	if f, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.entries[key] = f
	c.mu.Unlock()

	f.val, f.err = fn(ctx)
	close(f.done)

	c.mu.Lock()
	if f.err != nil {
		// Do not cache failures (cancellation included): the next caller
		// gets a fresh attempt.
		delete(c.entries, key)
	} else {
		c.order = append(c.order, key)
		c.evictLocked()
	}
	c.mu.Unlock()
	return f.val, f.err
}

// evictLocked drops the oldest completed entries beyond the bound.
func (c *Cache[K, V]) evictLocked() {
	if c.max <= 0 {
		return
	}
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// Len returns the number of retained (completed) entries.
//
//bzlint:allow testonly experiments.TestSuiteSimulatesScenarioOnce and TestSuiteSharesSteadyTrials count the suite's memoized trials with it
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// ScenarioKey identifies one simulated scenario: everything else about a
// run is derived deterministically from the seed and the horizon.
type ScenarioKey struct {
	Seed     uint64
	Duration time.Duration
}
