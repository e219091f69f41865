package queue

import (
	"fmt"
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/pad"
	"github.com/cds-suite/cds/internal/pow2"
)

// MPMC is a bounded multi-producer/multi-consumer queue over a circular
// array, in the style popularised by Dmitry Vyukov. Each slot carries a
// sequence number: producers claim a ticket from the enqueue cursor with
// fetch-and-add-like CAS and wait for their slot's sequence to say "free",
// consumers do the symmetric dance on the dequeue cursor. Compared with the
// linked queues, all data lives in one flat array (no allocation per
// element, dense cache behaviour) at the cost of a fixed capacity.
//
// Linearization points: TryEnqueue at the successful enqueue-cursor CAS;
// TryDequeue at the successful dequeue-cursor CAS; an empty return at the
// enqueue-cursor load that found no claim beyond the dequeue view, a full
// return at the dequeue-cursor load that found a full lap of unconsumed
// claims. The slot-sequence observation alone is not enough for either
// verdict: a lagging sequence can mean an in-flight publication (or, for
// full, an in-flight consumption) at the head of the line, and reporting
// empty while completed enqueues sit in later slots would not be
// linearizable — the cursor re-check distinguishes the two.
//
// Progress: not strictly lock-free — a producer that claims a slot and
// stalls before publishing delays the consumer of that slot, and a
// consumer that stalls between its claim and its sequence store delays
// the producer reusing that slot — but every cursor operation is bounded
// and the design is the standard "practically non-blocking" bounded
// queue used in high-performance systems.
type MPMC[T any] struct {
	buf     []mpmcSlot[T]
	mask    uint64
	_       pad.CacheLinePad
	enqueue atomic.Uint64
	_       pad.CacheLinePad
	dequeue atomic.Uint64
	_       pad.CacheLinePad
	//cdsvet:ignore padlayout CAS-miss telemetry counters share one line by design; they are only touched on the contended slow path the pads keep off the cursors
	stats mpmcCounters
}

// mpmcCounters sit behind Stats; they are touched only on the CAS-miss
// slow path, so the uncontended fast path pays nothing for them.
type mpmcCounters struct {
	enqMisses atomic.Int64
	deqMisses atomic.Int64
	backoffs  atomic.Int64
}

// MPMCStats is a snapshot of the ring's contention counters (the S2
// gauges): cursor-CAS misses per side, and how many retries — repeat
// CAS misses plus waits on an in-flight peer's slot publication or
// release — were paced with a backoff pause rather than spun hot.
type MPMCStats struct {
	EnqCASMisses int64
	DeqCASMisses int64
	Backoffs     int64
}

// Gauges emits the snapshot under its report gauge keys. MPMCStats
// declares no law, so it always returns nil.
func (s MPMCStats) Gauges(emit func(name string, v float64)) error {
	emit("enq_cas_misses", float64(s.EnqCASMisses))
	emit("deq_cas_misses", float64(s.DeqCASMisses))
	emit("backoffs", float64(s.Backoffs))
	return nil
}

// Stats snapshots the contention counters. Counters are monotone.
func (q *MPMC[T]) Stats() MPMCStats {
	return MPMCStats{
		EnqCASMisses: q.stats.enqMisses.Load(),
		DeqCASMisses: q.stats.deqMisses.Load(),
		Backoffs:     q.stats.backoffs.Load(),
	}
}

type mpmcSlot[T any] struct {
	sequence atomic.Uint64
	value    T
	_        pad.CacheLinePad
}

// NewMPMC returns an empty bounded queue with the given capacity, rounded
// up to a power of two (minimum 2).
func NewMPMC[T any](capacity int) *MPMC[T] {
	n := pow2.RoundUp(capacity, 2)
	q := &MPMC[T]{
		buf:  make([]mpmcSlot[T], n),
		mask: uint64(n - 1),
	}
	for i := range q.buf {
		q.buf[i].sequence.Store(uint64(i))
	}
	return q
}

// TryEnqueue adds v at the tail; it reports false if the queue was full.
func (q *MPMC[T]) TryEnqueue(v T) bool {
	var b contend.Backoff
	misses := 0
	pos := q.enqueue.Load()
	for {
		slot := &q.buf[pos&q.mask]
		seq := slot.sequence.Load()
		switch {
		case seq == pos:
			// Slot free for this lap: claim the ticket.
			if q.enqueue.CompareAndSwap(pos, pos+1) {
				slot.value = v
				slot.sequence.Store(pos + 1) // publish to consumers
				return true
			}
			// Lost the ticket race. Go's CAS reports failure without
			// returning the witnessed value (unlike C++'s
			// compare_exchange), so one cursor reload per miss is the
			// floor — but only one: no spin back to a cold re-read, and
			// repeated misses pace the retry instead of hammering the
			// contended line.
			q.stats.enqMisses.Add(1)
			misses++
			if misses > 1 {
				q.stats.backoffs.Add(1)
				b.Pause()
			}
			pos = q.enqueue.Load()
		case seq < pos:
			// Slot not yet freed for this lap. That proves the queue full
			// only if a whole lap of claims is unconsumed; otherwise either
			// the slot's consumer is mid-claim (dequeue-cursor CAS done,
			// sequence store pending — wait it out, per the documented
			// caveat that a stalled peer delays this slot and only this
			// slot) or our cursor view is a whole lap stale (the signed
			// delta goes negative) and a reload fixes it.
			if int64(pos-q.dequeue.Load()) >= int64(len(q.buf)) {
				return false // full linearizes at the dequeue-cursor load
			}
			pos = q.enqueue.Load()
			q.stats.backoffs.Add(1)
			b.Pause()
		default:
			// Another producer advanced the cursor past our stale view.
			pos = q.enqueue.Load()
		}
	}
}

// TryDequeue removes and returns the head element; ok is false if the
// queue was empty.
func (q *MPMC[T]) TryDequeue() (v T, ok bool) {
	var b contend.Backoff
	misses := 0
	pos := q.dequeue.Load()
	for {
		slot := &q.buf[pos&q.mask]
		seq := slot.sequence.Load()
		switch {
		case seq == pos+1:
			// Slot published for this lap: claim it.
			if q.dequeue.CompareAndSwap(pos, pos+1) {
				v = slot.value
				var zero T
				slot.value = zero // release reference for the GC
				// Free the slot for the producers' next lap.
				slot.sequence.Store(pos + q.mask + 1)
				return v, true
			}
			// Lost the claim race: one reload, paced after repeat misses
			// (see TryEnqueue for why the reload itself is unavoidable).
			q.stats.deqMisses.Add(1)
			misses++
			if misses > 1 {
				q.stats.backoffs.Add(1)
				b.Pause()
			}
			pos = q.dequeue.Load()
		case seq < pos+1:
			// Slot not yet published for this lap. That proves the queue
			// empty only if no enqueuer has claimed a ticket beyond our
			// view — a producer that claimed this very slot and stalled
			// before its sequence store would otherwise make us report
			// empty while its completed successors sit in later slots.
			if q.enqueue.Load() == pos {
				return v, false // empty linearizes at the enqueue-cursor load
			}
			pos = q.dequeue.Load()
			q.stats.backoffs.Add(1)
			b.Pause()
		default:
			// Another consumer advanced the cursor past our stale view.
			pos = q.dequeue.Load()
		}
	}
}

// Cap reports the fixed capacity.
func (q *MPMC[T]) Cap() int { return len(q.buf) }

// Len reports the difference of the cursors: the number of claimed-and-not-
// yet-consumed slots. Exact in quiescent states.
func (q *MPMC[T]) Len() int {
	// Order matters: loading dequeue first can otherwise yield negative
	// values when producers race ahead between the two loads.
	deq := q.dequeue.Load()
	enq := q.enqueue.Load()
	// The unsigned difference is correct even when the cursors straddle a
	// uint64 wraparound (a direct enq < deq comparison is not); a racing
	// dequeuer that got ahead between the two loads shows up as a huge
	// difference that is negative in two's complement.
	d := int64(enq - deq)
	if d < 0 {
		return 0
	}
	if d > int64(len(q.buf)) {
		return len(q.buf)
	}
	return int(d)
}

// String describes the queue state for debugging.
func (q *MPMC[T]) String() string {
	return fmt.Sprintf("MPMC(cap=%d len=%d)", q.Cap(), q.Len())
}
