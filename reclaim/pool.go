package reclaim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/internal/pad"
)

// Pool amortises guard registration across operations: a structure keeps
// one Pool and brackets each operation with Get/Put. Handing a guard to
// at most one goroutine at a time is exactly the owner-only discipline
// guards require.
//
// The cache is a fixed ring of padded TryLock slots rather than a
// sync.Pool: parked guards are registered domain state (an EBR
// participant, a set of hazard slots), and a cache that sheds items under
// GC pressure — or deliberately, as sync.Pool does under the race
// detector — leaks registrations faster than they can be torn down,
// growing every domain scan. Here the registry is bounded by
// construction: a Put that finds the ring full releases the guard
// instead of parking it.
//
// Slot selection hashes the caller's stack address, which is stable per
// goroutine, so a worker tends to reacquire the guard (and the warmed
// hazard slots) it used last.
type Pool struct {
	d     Domain
	slots int
	cache []pslot
}

type pslot struct {
	mu sync.Mutex
	g  Guard
	_  pad.CacheLinePad
}

// NewPool returns a guard pool over d; guards are created with the given
// hazard-slot capacity. It returns nil when d is nil or does not defer
// (the GC domain): no guard is needed there, and every structure takes a
// nil pool as its zero-cost GC path.
func NewPool(d Domain, slots int) *Pool {
	if d == nil || !d.Deferred() {
		return nil
	}
	p := &Pool{d: d, slots: slots}
	n := 4
	for n < 2*runtime.GOMAXPROCS(0) {
		n *= 2
	}
	p.cache = make([]pslot, n)
	return p
}

// Domain returns the pool's backing domain (for gauges and reports).
func (p *Pool) Domain() Domain { return p.d }

// home returns this goroutine's preferred ring index.
func (p *Pool) home() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 9) & uintptr(len(p.cache)-1))
}

// Get returns a guard owned exclusively by the caller until Put.
func (p *Pool) Get() Guard {
	mask := len(p.cache) - 1
	for i, idx := 0, p.home(); i < len(p.cache); i++ {
		s := &p.cache[(idx+i)&mask]
		if s.mu.TryLock() {
			g := s.g
			s.g = nil
			s.mu.Unlock()
			if g != nil {
				return g
			}
		}
	}
	return p.d.NewGuard(p.slots)
}

// Put parks g for reuse. g must be outside any Enter/Exit section. When
// the ring is full the guard is released instead, keeping the domain's
// registration count bounded.
func (p *Pool) Put(g Guard) {
	mask := len(p.cache) - 1
	for i, idx := 0, p.home(); i < len(p.cache); i++ {
		s := &p.cache[(idx+i)&mask]
		if s.mu.TryLock() {
			if s.g == nil {
				s.g = g
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
		}
	}
	g.Release()
}

// Drain releases every parked guard, handing their buffered retirements
// back to the domain as orphans, which subsequent retire traffic (or the
// backend's own drain) reclaims. Retired objects otherwise sit in the
// buffer of whichever parked guard retired them until that guard is
// reused, so a structure that must reach zero pending garbage at a
// quiescent point — teardown, a leak check — drains its pool first.
// Guards currently checked out are unaffected; the pool remains usable
// (Get simply registers fresh guards).
func (p *Pool) Drain() {
	for i := range p.cache {
		s := &p.cache[i]
		s.mu.Lock()
		g := s.g
		s.g = nil
		s.mu.Unlock()
		if g != nil {
			g.Release()
		}
	}
}

// Recycler pools retired nodes of one concrete type for reuse, the
// allocation win deferred reclamation unlocks: a node handed to Retire is
// reset and returned to a sync.Pool once the guard's domain declares it
// unreachable, so the structure's next allocation reuses it instead of
// growing the heap. Reuse is safe exactly because the domain interposes —
// under the plain GC domain free callbacks never run, so recycling
// silently degrades to ordinary allocation (constructors build a recycler
// only when NewPool returned a pool, for this reason).
//
// A nil *Recycler is valid and allocates normally, which lets structures
// thread one field through both recycled and non-recycled configurations.
type Recycler[T any] struct {
	pool  sync.Pool
	reset func(*T)
	reuse atomic.Int64
}

// NewRecycler returns a recycler whose reset function restores a retired
// node to a publishable state (zero keys/values, nil atomic pointers).
// reset runs before the node re-enters the pool, on whichever goroutine's
// scan reclaimed it.
func NewRecycler[T any](reset func(*T)) *Recycler[T] {
	return &Recycler[T]{reset: reset}
}

// Get returns a zeroed-for-reuse node, recycled if one is available.
func (r *Recycler[T]) Get() *T {
	if r == nil {
		return new(T)
	}
	if n, ok := r.pool.Get().(*T); ok {
		r.reuse.Add(1)
		return n
	}
	return new(T)
}

// Put returns a node that was never published to the pool directly — the
// give-back path for nodes prepared but then eliminated or found
// duplicate. Published nodes must go through Retire instead.
func (r *Recycler[T]) Put(n *T) {
	if r == nil {
		return
	}
	r.reset(n)
	r.pool.Put(n)
}

// Reused returns how many allocations were served from the pool.
func (r *Recycler[T]) Reused() int64 {
	if r == nil {
		return 0
	}
	return r.reuse.Load()
}

// Retire retires n into g; once the domain declares it unreachable it is
// reset and pooled in r for reuse. With a nil recycler the node is simply
// dropped to the garbage collector when its time comes (the free callback
// still runs, so the domain's reclaimed/pending gauges stay live).
func Retire[T any](g Guard, r *Recycler[T], n *T) {
	if r == nil {
		g.Retire(n, func() {})
		return
	}
	g.Retire(n, func() {
		r.reset(n)
		r.pool.Put(n)
	})
}

// Load reads *src for dereferencing under g's hazard slot: it publishes
// the loaded pointer and re-reads src until both agree, the
// publish-and-revalidate dance that guarantees any concurrent retirement
// of the object happened after our publication (so the retirer's scan
// sees the slot). For non-publishing guards (EBR, GC) it is a plain load.
func Load[T any](g Guard, slot int, src *atomic.Pointer[T]) *T {
	p := src.Load()
	if !g.Protects() {
		return p
	}
	for {
		if p == nil {
			g.Protect(slot, nil)
			return nil
		}
		g.Protect(slot, p)
		q := src.Load()
		if q == p {
			return p
		}
		p = q
	}
}
