// Package lockcheck is the lockcheck analyzer fixture: locked and
// unlocked guarded-field accesses, a documented //bzlint:holds callee
// with good and bad callers, a by-value mutex copy, a lock-order
// inversion pair, an unlock with no preceding lock, a waived access, and
// reads and writes under an RWMutex's read and write locks.
package lockcheck

import "sync"

// Counter guards count with mu.
//
//bzlint:guards mu count
type Counter struct {
	mu    sync.Mutex
	count int
}

// NewCounter constructs via composite literal — keys are not accesses.
func NewCounter() *Counter {
	return &Counter{count: 0}
}

// Inc locks before touching count — negative case.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
}

// Racy reads count with no lock anywhere in the body.
func (c *Counter) Racy() int {
	return c.count // want `Counter.Racy accesses Counter.mu-guarded field count without locking`
}

// bump documents that its callers hold mu.
//
//bzlint:holds mu
func (c *Counter) bump() {
	c.count++
}

// GoodCaller locks before calling the holds-annotated callee.
func (c *Counter) GoodCaller() {
	c.mu.Lock()
	c.bump()
	c.mu.Unlock()
}

// BadCaller calls the holds-annotated callee without the lock.
func (c *Counter) BadCaller() {
	c.bump() // want `Counter.BadCaller calls bump, which requires Counter.mu held, without locking it`
}

// WaivedRead carries a reasoned waiver on the unlocked access.
func (c *Counter) WaivedRead() int {
	//bzlint:allow lockcheck fixture: value is immutable after construction here
	return c.count
}

// CopyByValue receives the guarded struct by value, duplicating mu.
func CopyByValue(c Counter) int { // want `Counter passed by value copies its mutex Counter.mu`
	return 0
}

// BadUnlock unlocks a mutex this body never locked.
func (c *Counter) BadUnlock() {
	c.mu.Unlock() // want `Counter.BadUnlock unlocks Counter.mu without a preceding Lock on this path`
}

// Pair holds two mutexes whose acquisition order inverts between
// LockAB and LockBA.
//
//bzlint:guards a x
//bzlint:guards b y
type Pair struct {
	a, b sync.Mutex
	x, y int
}

// LockAB nests b inside a.
func (p *Pair) LockAB() {
	p.a.Lock()
	p.b.Lock() // want `lock-order inversion: lockcheck.Pair.LockAB acquires Pair.b while holding Pair.a, but the opposite order also exists`
	p.x++
	p.y++
	p.b.Unlock()
	p.a.Unlock()
}

// LockBA nests a inside b — the inverted order.
func (p *Pair) LockBA() {
	p.b.Lock()
	p.a.Lock() // want `lock-order inversion: lockcheck.Pair.LockBA acquires Pair.a while holding Pair.b, but the opposite order also exists`
	p.x++
	p.y++
	p.a.Unlock()
	p.b.Unlock()
}

// Gauge guards level and its memo seen with an RWMutex.
//
//bzlint:guards mu level,seen
type Gauge struct {
	mu    sync.RWMutex
	level int
	seen  map[string]int
}

// Level reads under the read lock — negative case.
func (g *Gauge) Level() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.level
}

// ResetShared writes under the read lock, which other readers share.
func (g *Gauge) ResetShared() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.level = 0 // want `lockcheck.Gauge.ResetShared writes Gauge.mu-guarded field level holding only a read lock`
	g.level++   // want `lockcheck.Gauge.ResetShared writes Gauge.mu-guarded field level holding only a read lock`
}

// MemoShared reads the memo under the read lock, then fills it: a map
// write, which the read lock does not cover.
func (g *Gauge) MemoShared(k string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if v, ok := g.seen[k]; ok {
		return v
	}
	g.seen[k] = g.level // want `lockcheck.Gauge.MemoShared writes Gauge.mu-guarded field seen holding only a read lock`
	return g.level
}

// Raise writes under the write lock — negative case.
func (g *Gauge) Raise() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.level++
}
