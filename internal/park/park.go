// Package park is the waiter-management core under the blocking (dual)
// structures in package dual: per-waiter futex-like permits built on
// channel primitives, plus a Lot (waiter set) for condition-style
// not-full/not-empty queues.
//
// A Permit is a single-waiter binary semaphore: Unpark deposits at most
// one token, Park consumes one, blocking until it arrives or the caller's
// context is cancelled. The intended discipline is spin-then-park: a
// waiter polls its structure-level condition a bounded number of times
// (cheap when the wait is short, which under rendezvous workloads it
// usually is) and only then allocates a Permit, publishes it where its
// waker can find it, re-checks the condition — closing the lost-wakeup
// window — and parks. Because the token is sticky, an Unpark that races
// ahead of the Park is never lost.
//
// The package is internal: the blocking semantics the survey discusses
// (partial operations that wait for a precondition instead of failing)
// are exposed through package dual; this layer only decides how a waiter
// sleeps and wakes.
package park

import (
	"context"
	"sync"
)

// Permit is a single-waiter binary semaphore. The zero value is not
// usable; construct with New. A Permit is intended for one waiter at a
// time: concurrent Parks on the same permit race for a single token.
type Permit struct {
	ch chan struct{}
}

// New returns an empty permit (no token available).
func New() *Permit {
	return &Permit{ch: make(chan struct{}, 1)}
}

// Unpark deposits the permit's token, releasing a current or future Park.
// At most one token is held: extra Unparks coalesce, so wakers may signal
// unconditionally without over-counting.
func (p *Permit) Unpark() {
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// TryAcquire consumes the token if one is available, without blocking —
// the non-blocking variant of Park.
func (p *Permit) TryAcquire() bool {
	select {
	case <-p.ch:
		return true
	default:
		return false
	}
}

// Park blocks until the token arrives or ctx is done, consuming the token
// on success. On cancellation an in-flight token stays deposited rather
// than being lost; the structures above this layer resolve the
// cancellation-vs-wakeup race at their own level (dual's transfer list
// settles it on the node's item CAS, and a Bounded waiter whose
// Lot.Withdraw reports it was already popped forwards the wakeup with
// WakeOne).
func (p *Permit) Park(ctx context.Context) error {
	select {
	case <-p.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Lot is a set of parked waiters — the waiter-management half of a
// blocking structure's not-empty or not-full condition. Unlike sync.Cond
// it hands each waiter its own Permit, which makes three things possible:
// waiters can re-check their condition between enrolling and parking
// (closing the lost-wakeup window without holding a lock across the
// check), they can abandon the wait on context cancellation, and a waker
// never blocks. Wakeups are FIFO over enrolment order.
type Lot struct {
	mu sync.Mutex
	ws []*Permit
}

// Enroll registers p as a waiter. The caller must re-check its condition
// after enrolling and before parking: a waker that ran before enrolment
// has not seen p. The re-check must never fail spuriously: it may report
// "not ready" only when the condition really is false (a CAS lost to a
// concurrent taker is retried, not read as "empty"), because a waiter
// that parks on a false negative may have no waker left.
func (l *Lot) Enroll(p *Permit) {
	l.mu.Lock()
	l.ws = append(l.ws, p)
	l.mu.Unlock()
}

// Withdraw removes p from the set, reporting whether it was still
// enrolled. A false return means a waker already popped p — its token has
// been (or is about to be) deposited — so a cancelling waiter that gets
// false must forward the wakeup to another waiter.
func (l *Lot) Withdraw(p *Permit) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, w := range l.ws {
		if w == p {
			last := len(l.ws) - 1
			copy(l.ws[i:], l.ws[i+1:])
			// Nil the vacated tail slot: the shift leaves a duplicate
			// reference there, and a long-lived Lot (a pool's idle set)
			// must not pin a dead waiter's permit.
			l.ws[last] = nil
			l.ws = l.ws[:last]
			return true
		}
	}
	return false
}

// WakeOne pops the oldest waiter and unparks it, reporting whether a
// waiter was present.
func (l *Lot) WakeOne() bool {
	l.mu.Lock()
	var p *Permit
	if len(l.ws) > 0 {
		p = l.ws[0]
		// Nil the slot before reslicing: the backing array retains the
		// popped prefix, and it must not keep dead permits reachable.
		l.ws[0] = nil
		l.ws = l.ws[1:]
	}
	l.mu.Unlock()
	if p == nil {
		return false
	}
	p.Unpark()
	return true
}

// WakeAll pops and unparks every enrolled waiter.
func (l *Lot) WakeAll() {
	l.mu.Lock()
	ws := l.ws
	l.ws = nil
	l.mu.Unlock()
	for _, p := range ws {
		p.Unpark()
	}
}

// Len reports the number of enrolled waiters.
func (l *Lot) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ws)
}
