package reclaim

import "fmt"

// A Domain owns reclamation state for one data structure (or a family
// sharing it): the set of guards, the retired-object lists, and the
// reclaimed/pending gauges the benchmark reports surface.
type Domain interface {
	// NewGuard registers a new guard with the domain, with capacity for
	// the given number of hazard slots (ignored by non-publishing
	// schemes). Most callers should use a Pool instead of calling this
	// per operation: registration takes a domain-wide lock.
	NewGuard(slots int) Guard
	// Reclaimed returns the number of retired objects whose free
	// callbacks have run.
	Reclaimed() int64
	// Pending returns the number of retired-but-not-yet-freed objects —
	// the "pending garbage" gauge of experiment F12. Always 0 for the GC
	// domain, which never defers anything.
	Pending() int64
	// Deferred reports whether Retire defers free callbacks until no
	// guard can reach the object (true for EBR and HP). The GC domain
	// returns false: its Retire simply drops the object for the garbage
	// collector, so free callbacks never run and node recycling is
	// impossible.
	Deferred() bool
	// Name labels the scheme in benchmark reports: "gc", "ebr", or "hp".
	Name() string
	// Gauges emits Pending and Reclaimed under the report gauge keys
	// pending_garbage and reclaimed, and returns an error when the
	// domain's law is broken:
	//
	//	Pending() >= 0
	//
	// The law holds at every instant, not only at quiescence: a
	// retirement is counted pending before its free callback can run.
	Gauges(emit func(name string, v float64)) error
}

// gauges implements Domain.Gauges for every domain.
func gauges(d Domain, emit func(name string, v float64)) error {
	pending := d.Pending()
	emit("pending_garbage", float64(pending))
	emit("reclaimed", float64(d.Reclaimed()))
	if pending < 0 {
		return fmt.Errorf("reclaim: %s domain: law pending_garbage >= 0 broken (%d)", d.Name(), pending)
	}
	return nil
}

// A Guard is one goroutine's session with a Domain. Its methods are
// owner-only: a guard must not be shared between concurrently running
// operations (Pool enforces this).
type Guard interface {
	// Enter opens a read-side critical section. For EBR this pins the
	// current epoch; retired objects cannot be freed while any guard that
	// might have seen them is inside a section. Enter/Exit nest.
	Enter()
	// Exit closes the critical section and (for HP) clears every hazard
	// slot.
	Exit()
	// Protect publishes ptr in hazard slot i; nil clears the slot. Only
	// hazard-pointer guards act on it. Publication alone is not safety:
	// the caller must revalidate the source pointer still holds ptr
	// before dereferencing (see Load for the canonical dance).
	Protect(i int, ptr any)
	// Protects reports whether this guard requires the Protect +
	// revalidate protocol before dereferencing shared pointers (true only
	// for hazard-pointer guards). Structures use it to skip the
	// publication dance under EBR/GC.
	Protects() bool
	// Retire schedules free to run once no guard can reach ptr. Under HP,
	// ptr must be the identical pointer readers pass to Protect. The GC
	// guard drops the object without ever calling free.
	Retire(ptr any, free func())
	// Release unregisters the guard from its domain, handing any
	// unfreed retirements to the domain. The guard must not be used
	// afterwards.
	Release()
}

// NewGC returns the zero-cost noop domain: Enter/Exit/Protect do nothing
// and Retire drops the object for Go's garbage collector. It is the
// default every structure uses when no WithReclaim option is given.
func NewGC() Domain { return gcDomain{} }

type gcDomain struct{}

func (gcDomain) NewGuard(int) Guard { return gcGuard{} }
func (gcDomain) Reclaimed() int64   { return 0 }
func (gcDomain) Pending() int64     { return 0 }
func (gcDomain) Deferred() bool     { return false }
func (gcDomain) Name() string       { return "gc" }

func (d gcDomain) Gauges(emit func(string, float64)) error { return gauges(d, emit) }

type gcGuard struct{}

func (gcGuard) Enter()             {}
func (gcGuard) Exit()              {}
func (gcGuard) Protect(int, any)   {}
func (gcGuard) Protects() bool     { return false }
func (gcGuard) Retire(any, func()) {}
func (gcGuard) Release()           {}
