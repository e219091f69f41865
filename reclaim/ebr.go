package reclaim

import (
	"sync"
	"sync/atomic"

	"github.com/cds-suite/cds/internal/pad"
)

// epochBags is the number of retirement generations kept per participant.
const epochBags = 3

// defaultAdvanceEvery is how many retirements a participant buffers between
// epoch-advance attempts.
const defaultAdvanceEvery = 64

// EBR is the epoch-based reclamation domain (Fraser 2004). Its guards are
// participants that pin the global epoch for the duration of Enter/Exit
// sections; Retire defers the free callback until the epoch has advanced
// twice past the retirement epoch, at which point no pinned reader can
// still hold a reference.
//
// EBR's weakness is liveness, not safety: one guard stalled inside a
// section halts epoch advancement and lets pending garbage grow without
// bound across the whole domain (the S14 stalled-reader scenario measures
// exactly this).
type EBR struct {
	global atomic.Uint64

	// advancing single-flights TryAdvance's registry scan: concurrent
	// callers skip instead of convoying on mu behind the scanner, which
	// keeps heavily retiring workloads from serialising on the registry
	// lock (the scan is O(participants) and runs on a retire cadence).
	advancing atomic.Bool

	mu           sync.Mutex // guards participants registry and orphans
	participants []*participant
	// orphans holds bags inherited from released participants, keyed by
	// retirement epoch; they age out under the same e+2 rule.
	orphans map[uint64][]func()
	// orphanCount mirrors the total size of orphans so hot paths can skip
	// the drain lock when there is nothing to drain.
	orphanCount atomic.Int64

	reclaimed atomic.Int64
	pending   atomic.Int64

	// advanceEvery is the per-participant Retire cadence for attempting an
	// epoch advance (and collecting aged bags). Fixed after construction.
	advanceEvery uint64

	// advanceTestHook, when non-nil, runs between TryAdvance's epoch load
	// and its CAS — the window where a concurrent advance makes the CAS
	// lose. Tests use it to pin down the orphan-drain liveness guarantee.
	advanceTestHook func()
}

// NewEBR returns a fresh epoch-based reclamation domain at epoch 1.
func NewEBR() *EBR {
	e := &EBR{
		orphans:      make(map[uint64][]func()),
		advanceEvery: defaultAdvanceEvery,
	}
	e.global.Store(1)
	return e
}

// SetAdvanceInterval overrides how many retirements a guard buffers
// between epoch-advance attempts (default 64). Lower values reclaim more
// eagerly at the cost of more frequent participant scans; tests use 1-4
// to force reclamation inside tiny windows. Call before guards retire.
func (e *EBR) SetAdvanceInterval(n uint64) { e.advanceEvery = max(n, 1) }

// NewGuard registers a participant. slots is ignored: EBR protects whole
// sections, not individual pointers. The participant must be released
// when its user stops, or epoch advancement stalls and garbage
// accumulates — the classic EBR liveness caveat.
func (e *EBR) NewGuard(int) Guard {
	p := &participant{e: e}
	e.mu.Lock()
	e.participants = append(e.participants, p)
	e.mu.Unlock()
	return p
}

func (e *EBR) Reclaimed() int64 { return e.reclaimed.Load() }
func (e *EBR) Pending() int64   { return e.pending.Load() }
func (e *EBR) Deferred() bool   { return true }
func (e *EBR) Name() string     { return "ebr" }

func (e *EBR) Gauges(emit func(string, float64)) error { return gauges(e, emit) }

// drainOrphans frees aged-out orphan bags. Called after epoch advances.
func (e *EBR) drainOrphans() {
	g := e.global.Load()
	var ready []func()
	e.mu.Lock()
	for ep, bag := range e.orphans {
		if ep+2 <= g {
			ready = append(ready, bag...)
			delete(e.orphans, ep)
		}
	}
	e.orphanCount.Add(-int64(len(ready)))
	e.mu.Unlock()
	e.freeBag(ready)
}

// freeBag runs a batch of deferred callbacks and moves them from the pending
// to the reclaimed gauge.
func (e *EBR) freeBag(bag []func()) {
	if len(bag) == 0 {
		return
	}
	for _, f := range bag {
		f()
	}
	e.reclaimed.Add(int64(len(bag)))
	e.pending.Add(-int64(len(bag)))
}

// TryAdvance attempts to move the global epoch forward by one. It fails
// (harmlessly) if some participant is still pinned at an older epoch.
// It reports whether the epoch advanced. Retire calls it on its own
// cadence; callers only need it to age out orphans at a quiescent point.
func (e *EBR) TryAdvance() bool {
	ep := e.global.Load()
	if !e.advancing.CompareAndSwap(false, true) {
		// Another caller is mid-scan; skip rather than queue behind it.
		// Still honour the drain-on-observed-advance rule below so aged
		// orphans cannot outlive an advance we raced with.
		if e.orphanCount.Load() > 0 && e.global.Load() > ep {
			e.drainOrphans()
		}
		return false
	}
	e.mu.Lock()
	for _, p := range e.participants {
		s := p.state.Load()
		if s&1 == 1 && s>>1 != ep {
			e.mu.Unlock()
			e.advancing.Store(false)
			return false // pinned in an older epoch
		}
	}
	e.mu.Unlock()
	if h := e.advanceTestHook; h != nil {
		h()
	}
	advanced := e.global.CompareAndSwap(ep, ep+1)
	e.advancing.Store(false)
	// Drain whenever an advance was observed — ours or a concurrent one
	// that beat our CAS. Draining only on CAS success leaves aged-out
	// orphan bags (e.g. from a Release that landed after the winner's
	// drain) lingering until the *next* successful advance, which may be
	// arbitrarily far away once the callers go quiescent.
	if (advanced || e.global.Load() > ep) && e.orphanCount.Load() > 0 {
		e.drainOrphans()
	}
	return advanced
}

// participant is one goroutine's registration with an EBR domain: the
// domain's Guard. Its methods must be called from a single goroutine at a
// time.
type participant struct {
	e *EBR

	// state is epoch<<1|1 while pinned, 0 while quiescent.
	state atomic.Uint64
	_     pad.CacheLinePad

	// bags hold deferred destructors by retirement generation; owner-only.
	bags     [epochBags][]func()
	bagEpoch [epochBags]uint64

	pinDepth int
	ops      uint64
}

// Enter pins the current epoch until the matching Exit. Sections nest.
func (p *participant) Enter() {
	if p.pinDepth == 0 {
		// SC atomics order this store before the section's loads, which is
		// the fence EBR needs between "announce" and "read".
		p.state.Store(p.e.global.Load()<<1 | 1)
	}
	p.pinDepth++
}

// Exit leaves the section; the outermost Exit unpins.
func (p *participant) Exit() {
	p.pinDepth--
	if p.pinDepth == 0 {
		p.state.Store(0)
	}
	if p.pinDepth < 0 {
		panic("reclaim: EBR Exit without matching Enter")
	}
}

func (p *participant) Protect(int, any) {}
func (p *participant) Protects() bool   { return false }

// Retire files free in the bag of the current epoch. It may be called
// pinned or unpinned.
func (p *participant) Retire(_ any, free func()) {
	ep := p.e.global.Load()
	idx := ep % epochBags
	if p.bagEpoch[idx] != ep {
		// The slot holds a bag from epoch ep-3 or older: ep ≥ old+3 means
		// the global epoch passed old+2, so its contents are safe now.
		p.drainBag(idx)
		p.bagEpoch[idx] = ep
	}
	p.bags[idx] = append(p.bags[idx], free)
	p.e.pending.Add(1)

	p.ops++
	if p.ops%p.e.advanceEvery == 0 {
		p.e.TryAdvance()
		p.collect()
	}
}

// collect drains every bag whose epoch has aged out (epoch ≤ global-2).
func (p *participant) collect() {
	g := p.e.global.Load()
	for i := range p.bags {
		if len(p.bags[i]) > 0 && p.bagEpoch[i]+2 <= g {
			p.drainBag(uint64(i))
		}
	}
}

// drainBag runs and clears bag idx. Owner-only.
func (p *participant) drainBag(idx uint64) {
	bag := p.bags[idx]
	p.bags[idx] = nil
	p.e.freeBag(bag)
}

// Release unregisters p. Its undrained bags are inherited by the domain
// as orphans and freed once their epochs age out — never early, even if
// other participants are still pinned in old epochs.
func (p *participant) Release() {
	if p.pinDepth != 0 {
		panic("reclaim: EBR Release of a pinned guard")
	}
	e := p.e
	e.mu.Lock()
	for i, q := range e.participants {
		if q == p {
			e.participants[i] = e.participants[len(e.participants)-1]
			e.participants = e.participants[:len(e.participants)-1]
			break
		}
	}
	for i := range p.bags {
		if len(p.bags[i]) > 0 {
			ep := p.bagEpoch[i]
			e.orphans[ep] = append(e.orphans[ep], p.bags[i]...)
			e.orphanCount.Add(int64(len(p.bags[i])))
			p.bags[i] = nil
		}
	}
	e.mu.Unlock()
	e.TryAdvance()
}
