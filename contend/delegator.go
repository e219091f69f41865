package contend

import (
	"fmt"
	"sync/atomic"
)

// Delegator is the combining-backend abstraction: a concurrency wrapper
// around a sequential structure S where threads submit operations and a
// single temporary combiner applies whole batches. Three backends satisfy
// it, differing only in how the pending operations are published and how
// the combiner role moves between threads:
//
//   - Combiner (flat combining, the default everywhere): operations are
//     CAS-pushed onto a detached list; whichever thread wins a busy flag
//     claims the whole list with one swap and applies it.
//   - CCSynch: a swap-based handoff list; each thread spins on the node it
//     received from the swap (one cache line per waiter) and the combiner
//     role is handed along the list at a bounded batch size.
//   - DSMSynch: the NUMA/DSM-friendly variant; each thread spins only on
//     the node it allocated itself, so the spin target is thread-local
//     memory and never migrates between caches.
//
// All three provide the same contract as Combiner.Do: Do returns after
// apply has executed against the structure, and results travel out through
// the closure's captured variables.
type Delegator[S any] interface {
	// Do submits apply and returns after it has executed against the
	// structure.
	Do(apply func(S))
	// Stats reports the backend's combining gauges. Counting is always on;
	// the counters are updated only by combiner threads at batch
	// boundaries, so the cost is amortised over the batch.
	Stats() DelegatorStats
}

// Backend selects a combining backend by name, for consumers that
// construct their sequential structure internally (fc.Queue, pqueue.FC,
// deque.FC, counter.Combining) and expose the choice through a
// WithBackend option. The zero value is flat combining, which keeps the
// pre-backend behavior the default.
type Backend int

const (
	// BackendFlatCombining selects Combiner (flat combining), the default.
	BackendFlatCombining Backend = iota
	// BackendCCSynch selects CCSynch.
	BackendCCSynch
	// BackendDSMSynch selects DSMSynch.
	BackendDSMSynch
)

// String names the backend the way the benchmark matrix labels it.
func (b Backend) String() string {
	switch b {
	case BackendCCSynch:
		return "CC-Synch"
	case BackendDSMSynch:
		return "DSM-Synch"
	default:
		return "FlatCombining"
	}
}

// Backends returns all combining backends in matrix order, for sweeps.
func Backends() []Backend {
	return []Backend{BackendFlatCombining, BackendCCSynch, BackendDSMSynch}
}

// NewDelegator constructs the chosen backend around seq. After
// construction the structure must only be accessed through Do.
func NewDelegator[S any](b Backend, seq S) Delegator[S] {
	switch b {
	case BackendCCSynch:
		return NewCCSynch(seq)
	case BackendDSMSynch:
		return NewDSMSynch(seq)
	default:
		return NewCombiner(seq)
	}
}

// DelegatorStats is a snapshot of a backend's combining gauges. The
// interesting ratio is Ops/Batches (see AvgBatch): combining only pays for
// itself when batches are bigger than one, and batch size growing with the
// thread count is the signature of delegation working.
//
// Every pass applies at least one operation and no pass applies more than
// all of them, so at quiescence (no combining pass in flight) a snapshot
// obeys the laws Gauges checks:
//
//	Batches <= Ops
//	MaxBatch <= Ops
//	1 <= AvgBatch() <= MaxBatch          (when Batches > 0)
//
// Handoffs is not bounded by Batches: flat combining counts a handoff per
// re-wait, not per pass.
type DelegatorStats struct {
	// Batches counts combining passes that applied at least one operation.
	Batches uint64
	// Ops counts operations applied across all batches. Every Do call
	// contributes exactly one.
	Ops uint64
	// MaxBatch is the largest number of operations any single pass
	// applied. For CCSynch and DSMSynch it is bounded by the backend's
	// batch bound; flat combining's passes are bounded only by how much
	// piled up while the previous pass ran.
	MaxBatch uint64
	// Handoffs counts passes that ended by delegating pending work to
	// another thread. For CCSynch/DSMSynch this is the bound-hit handoff
	// (the next waiter inherits the combiner role mid-list); for flat
	// combining it counts passes after which the combining thread's own
	// operation was still pending with a predecessor combiner — the
	// analogous "someone else finishes my work" event.
	Handoffs uint64
}

// AvgBatch returns the mean operations per combining pass, 0 before any
// pass completed.
func (s DelegatorStats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// Gauges emits the snapshot under its report gauge keys and returns an
// error naming the first law of DelegatorStats it breaks. The AvgBatch
// bounds are checked in integers: 1 <= AvgBatch() is Batches <= Ops, and
// AvgBatch() <= MaxBatch is Ops <= MaxBatch*Batches.
func (s DelegatorStats) Gauges(emit func(name string, v float64)) error {
	emit("batches", float64(s.Batches))
	emit("ops_combined", float64(s.Ops))
	emit("max_batch", float64(s.MaxBatch))
	emit("avg_batch", s.AvgBatch())
	emit("handoffs", float64(s.Handoffs))
	switch {
	case s.Batches > s.Ops:
		return fmt.Errorf("contend.DelegatorStats: law batches <= ops_combined broken (%d > %d)", s.Batches, s.Ops)
	case s.MaxBatch > s.Ops:
		return fmt.Errorf("contend.DelegatorStats: law max_batch <= ops_combined broken (%d > %d)", s.MaxBatch, s.Ops)
	case s.Batches > 0 && s.Ops > s.MaxBatch*s.Batches:
		return fmt.Errorf("contend.DelegatorStats: law avg_batch <= max_batch broken (%v > %d)", s.AvgBatch(), s.MaxBatch)
	}
	return nil
}

// delegStats is the shared counter block behind Stats on every backend.
// Only combiner threads touch it, once per pass, so plain atomic adds are
// cheap relative to the batch they account for.
type delegStats struct {
	batches  atomic.Uint64
	ops      atomic.Uint64
	maxBatch atomic.Uint64
	handoffs atomic.Uint64
}

func (d *delegStats) endBatch(served uint64, handoff bool) {
	if served == 0 {
		return
	}
	d.batches.Add(1)
	d.ops.Add(served)
	//cdsvet:ignore spinpace monotonic max update: a failed CAS means another batch raised the bar, so the loop converges in at most a few steps
	for {
		cur := d.maxBatch.Load()
		if served <= cur || d.maxBatch.CompareAndSwap(cur, served) {
			break
		}
	}
	if handoff {
		d.handoffs.Add(1)
	}
}

func (d *delegStats) snapshot() DelegatorStats {
	return DelegatorStats{
		Batches:  d.batches.Load(),
		Ops:      d.ops.Load(),
		MaxBatch: d.maxBatch.Load(),
		Handoffs: d.handoffs.Load(),
	}
}
