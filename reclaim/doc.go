// Package reclaim is the module's safe-memory-reclamation layer: epoch-
// based reclamation (EBR), hazard pointers (HP), and a zero-cost
// rely-on-the-GC noop behind one small Domain/Guard interface that the
// lock-free structures accept via their WithReclaim constructor option.
//
// The survey treats reclamation as a core part of lock-free data structure
// design: an unlinked node may still be referenced by concurrent readers,
// so its memory can be recycled only once no reader can reach it. Go's
// garbage collector provides that guarantee for free, which is why the
// default domain is a noop — but running the real protocols against the
// real structures is what lets experiment F12 measure their read-side
// costs and garbage bounds, and it is what makes node *recycling* (a
// sync.Pool of retired nodes, see Recycler) safe: a pooled node is reused
// only after the domain declares it unreachable, restoring the
// never-reuse-while-referenced property the GC otherwise provides.
//
// The scheme trade-offs, as the survey frames them:
//
//   - EBR (Fraser): readers pin an epoch around whole operations; reads
//     inside the section cost nothing extra. Garbage is unbounded if a
//     reader stalls while pinned — one stuck goroutine halts all
//     reclamation in the domain.
//   - Hazard pointers (Michael): readers publish each pointer before
//     dereferencing it and revalidate the source. Every protected read
//     pays a store + fence + reload, but garbage is bounded even when
//     readers stall: a stalled thread pins at most its slots' objects.
//
// The EBR protocol: readers pin the current global epoch while accessing
// shared nodes. Writers retire nodes into the bag of the epoch current at
// retire time. The global epoch advances from e to e+1 only when every
// pinned participant has observed e; hence when the global epoch reaches
// e+2, no reader can still be inside a critical section that began at
// epoch e, and bags retired at e may be drained. Three bags per
// participant suffice because at most three epochs {e-1, e, e+1} can be
// "live" at once.
//
// Guards are not goroutine-safe; obtain one per operation from a Pool
// (which amortises registration) and return it when done. Structures must
// never hold a guard section across a blocking wait — the dual structures
// exit their section before parking for exactly this reason. NewPool
// returns nil for the GC domain, and a structure with a nil pool takes no
// guards at all: that is the one place the GC fast path is decided.
//
// Progress guarantees: Enter/Exit/Protect are wait-free; Retire is
// wait-free with an amortised scan (HP) or drain (EBR) whose cost is
// bounded by the retired-list length. The consumers of this package are
// listed in ARCHITECTURE.md; experiment F12 and the S14 scenarios report
// each domain's reclaimed/pending gauges.
package reclaim
