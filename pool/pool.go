package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/deque"
	"github.com/cds-suite/cds/internal/park"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/queue"
)

// Pool lifecycle states.
const (
	stateRunning int32 = iota
	// stateDraining: Submit is rejected, workers run until pending == 0.
	stateDraining
	// stateStopped: workers exit as soon as they observe the state;
	// unexecuted tasks are abandoned.
	stateStopped
)

// spinRounds is how many failed full scans (local pop + injection lane +
// one randomized victim sweep) a worker pays for, paced by its Backoff,
// before it enrolls as an idle waiter and parks. Short waits — a sibling
// about to spawn, a steal lost to a CAS race — resolve inside the spin
// budget; droughts put the worker to sleep instead of burning a core.
const spinRounds = 8

// WorkStealing is a work-stealing task executor. Each worker owns a
// Chase–Lev deque: tasks spawned by a running task (Worker.Spawn) push to
// the spawning worker's bottom and pop back LIFO, external Submit calls
// land in a shared lock-free injection lane, and a worker that runs dry
// steals FIFO from the top of randomly chosen victims. Idle workers
// spin-then-park on permits; Shutdown drains or abandons (see Shutdown).
//
// The handler runs tasks one at a time per worker and must not panic; a
// task that needs to fork submits children via the Worker it was handed.
//
// WorkStealing satisfies cds.Pool.
// injectLane is what the pool needs from its injection queue: the
// unbounded enqueue, the non-blocking dequeue every worker polls, and the
// O(1) emptiness probe the pre-park re-check runs. queue.MS and
// queue.LCRQ both satisfy it; WithInjectionLane picks one.
type injectLane[T any] interface {
	Enqueue(T)
	TryDequeue() (T, bool)
	Empty() bool
}

// newLane builds the configured injection lane.
func newLane[T any](l Lane) injectLane[T] {
	if l == LaneSegmented {
		return queue.NewLCRQ[T]()
	}
	return queue.NewMS[T]()
}

type WorkStealing[T any] struct {
	handler func(w *Worker[T], t T)
	workers []*Worker[T]
	inject  injectLane[T]

	idle  park.Lot
	nidle atomic.Int64

	// pending counts accepted-but-not-yet-executed tasks (Submit and
	// Spawn increment, task completion decrements). Draining ends when it
	// reaches zero; it cannot rebound there, since in the draining state
	// new tasks can only be spawned by a running task, which pending
	// still counts.
	pending atomic.Int64
	state   atomic.Int32

	ctx     context.Context // cancelled on stop: unparks abandoned workers
	cancel  context.CancelFunc
	drained chan struct{} // closed when draining reaches pending == 0
	stopC   chan struct{} // closed once workers have been told to exit
	drainMu sync.Once
	stopMu  sync.Once
	wg      sync.WaitGroup

	submitted atomic.Uint64
}

var _ cds.Pool[int] = (*WorkStealing[int])(nil)

// Worker is one executor goroutine's identity, handed to the handler with
// every task. Its methods are valid only from inside the handler (the
// deque's owner end is single-threaded by construction).
type Worker[T any] struct {
	pool *WorkStealing[T]
	id   int
	dq   *deque.ChaseLev[T]
	rng  *xrand.Rand

	localHits  atomic.Uint64
	injectHits atomic.Uint64
	steals     atomic.Uint64
	parks      atomic.Uint64
	spawned    atomic.Uint64
}

// ID reports the worker's index in [0, workers).
func (w *Worker[T]) ID() int { return w.id }

// Spawn schedules t on the spawning worker's own deque — the fork path:
// the child is picked back up LIFO (cache-warm) unless a hungry sibling
// steals it first. Valid only from inside the handler, on the Worker the
// handler was invoked with.
func (w *Worker[T]) Spawn(t T) {
	p := w.pool
	// pending must rise before the child becomes stealable: a thief could
	// otherwise run it to completion and drive pending to zero while the
	// parent's accounting is still in flight, ending a drain early. The
	// spawn counter is worker-local, keeping the fork fast path at one
	// shared RMW.
	p.pending.Add(1)
	w.spawned.Add(1)
	w.dq.PushBottom(t)
	p.signal()
}

// NewWorkStealing returns a running executor whose workers invoke handler
// for every task. Configure worker count and deque capacity with Options;
// the default is one worker per GOMAXPROCS.
func NewWorkStealing[T any](handler func(w *Worker[T], t T), opts ...Option) *WorkStealing[T] {
	o := buildOptions(opts)
	p := &WorkStealing[T]{
		handler: handler,
		inject:  newLane[T](o.lane),
		drained: make(chan struct{}),
		stopC:   make(chan struct{}),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.workers = make([]*Worker[T], o.workers)
	for i := range p.workers {
		p.workers[i] = &Worker[T]{
			pool: p,
			id:   i,
			dq:   deque.NewChaseLev[T](o.dequeCap),
			rng:  xrand.New(uint64(i)*0x9e3779b97f4a7c15 + 1),
		}
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.runWorker(w)
	}
	return p
}

// Workers reports the worker count.
func (p *WorkStealing[T]) Workers() int { return len(p.workers) }

// Pending reports the number of accepted tasks that have not finished
// executing (see Stack.Len caveats in the root package: exact only in
// quiescent states).
func (p *WorkStealing[T]) Pending() int { return int(p.pending.Load()) }

// Submit hands t to the pool through the injection lane. It reports false
// — and t will never run — once Shutdown has begun.
func (p *WorkStealing[T]) Submit(t T) bool {
	// Count before the state check: a Shutdown that flips to draining
	// after this increment observes pending > 0 and waits for the
	// enqueue below, so an accepted task is never abandoned by a drain.
	p.pending.Add(1)
	if p.state.Load() != stateRunning {
		p.taskDone()
		return false
	}
	p.inject.Enqueue(t)
	p.submitted.Add(1)
	p.signal()
	return true
}

// signal wakes one parked worker if any worker is (or is about to be)
// parked. Producers enqueue before signalling and idle workers bump nidle
// before their pre-park re-check, so a task published here is seen either
// by the re-check or by the wakeup — never by neither.
func (p *WorkStealing[T]) signal() {
	if p.nidle.Load() > 0 {
		p.idle.WakeOne()
	}
}

// ErrAbandoned is returned by Shutdown calls that observe a pool another
// Shutdown already stopped without completing its drain: accepted tasks
// were abandoned, so no caller may treat the termination as the
// every-task-ran join.
var ErrAbandoned = errors.New("pool: shutdown abandoned accepted tasks")

// Shutdown stops the pool with drain semantics: further Submits are
// rejected, the workers run every already-accepted task (including tasks
// those tasks spawn), and once the pool is empty the workers exit. If ctx
// is cancelled before the drain completes, the remaining tasks are
// abandoned, the workers exit without running them, and ctx's error is
// returned. Shutdown is idempotent; concurrent calls all block until the
// pool has terminated, and a nil return — from any of them — always
// means the drain completed (a call that finds the pool already stopped
// short of its drain returns ErrAbandoned instead).
func (p *WorkStealing[T]) Shutdown(ctx context.Context) error {
	p.state.CompareAndSwap(stateRunning, stateDraining)
	if p.pending.Load() == 0 {
		p.finishDrain()
	}
	// A drain that is already complete wins over a cancelled ctx: nothing
	// was abandoned, so the caller gets the nil of a clean drain.
	select {
	case <-p.drained:
		p.stop()
		p.wg.Wait()
		return nil
	default:
	}
	select {
	case <-p.drained:
		p.stop()
		p.wg.Wait()
		return nil
	case <-p.stopC:
		// Another Shutdown already stopped the pool; report whether its
		// drain had completed or its tasks were abandoned.
		p.wg.Wait()
		select {
		case <-p.drained:
			return nil
		default:
			return ErrAbandoned
		}
	case <-ctx.Done():
		p.stop()
		p.wg.Wait()
		return ctx.Err()
	}
}

// taskDone retires one pending task and completes the drain when the last
// one finishes under draining.
func (p *WorkStealing[T]) taskDone() {
	if p.pending.Add(-1) == 0 && p.state.Load() != stateRunning {
		p.finishDrain()
	}
}

// finishDrain publishes drain completion and wakes every parked worker so
// it can observe the exit condition.
func (p *WorkStealing[T]) finishDrain() {
	p.drainMu.Do(func() { close(p.drained) })
	p.idle.WakeAll()
}

// stop tells the workers to exit now, abandoning any tasks still queued.
func (p *WorkStealing[T]) stop() {
	p.stopMu.Do(func() {
		p.state.Store(stateStopped)
		close(p.stopC)
		p.cancel()       // unparks workers blocked in Park
		p.idle.WakeAll() // and any racing toward the park
	})
}

// shouldExit reports whether a worker observing no work may terminate.
func (p *WorkStealing[T]) shouldExit() bool {
	switch p.state.Load() {
	case stateStopped:
		return true
	case stateDraining:
		return p.pending.Load() == 0
	}
	return false
}

// runWorker is the worker loop: pop local, drain the injection lane,
// steal, and otherwise spin-then-park.
func (p *WorkStealing[T]) runWorker(w *Worker[T]) {
	defer p.wg.Done()
	var b contend.Backoff
	rounds := 0
	for {
		if p.state.Load() == stateStopped {
			return
		}
		if t, ok := p.next(w); ok {
			rounds = 0
			b.Reset()
			p.handler(w, t)
			p.taskDone()
			continue
		}
		if p.shouldExit() {
			return
		}
		rounds++
		if rounds < spinRounds {
			b.Pause()
			continue
		}
		p.parkIdle(w)
		rounds = 0
		b.Reset()
	}
}

// next finds the worker's next task: its own bottom end first, then the
// injection lane, then one randomized sweep over the other workers' tops.
func (p *WorkStealing[T]) next(w *Worker[T]) (t T, ok bool) {
	if t, ok = w.dq.TryPopBottom(); ok {
		w.localHits.Add(1)
		return t, true
	}
	if t, ok = p.inject.TryDequeue(); ok {
		w.injectHits.Add(1)
		return t, true
	}
	n := len(p.workers)
	off := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := p.workers[(off+i)%n]
		if v == w {
			continue
		}
		if t, ok = v.dq.TryPopTop(); ok {
			w.steals.Add(1)
			return t, true
		}
	}
	return t, false
}

// hasWork reports whether any task source might be non-empty — the
// pre-park re-check. It may err toward true (a stale Len or a task
// another worker is about to claim), which only costs a wasted scan.
func (p *WorkStealing[T]) hasWork() bool {
	if !p.inject.Empty() {
		return true
	}
	for _, v := range p.workers {
		if v.dq.Len() > 0 {
			return true
		}
	}
	return false
}

// parkIdle blocks the worker until new work may be available or the pool
// terminates, using the enrol → re-check → park discipline: the permit is
// published before the final source scan, so a producer that missed the
// nidle increment is seen by the scan and one that saw it delivers a
// wakeup to the enrolled permit.
func (p *WorkStealing[T]) parkIdle(w *Worker[T]) {
	p.nidle.Add(1)
	pm := park.New()
	p.idle.Enroll(pm)
	if p.hasWork() || p.shouldExit() {
		p.nidle.Add(-1)
		if !p.idle.Withdraw(pm) {
			// A waker already picked us: our token is in flight and the
			// condition it signals is still unserved — pass it on.
			p.idle.WakeOne()
		}
		return
	}
	w.parks.Add(1)
	err := pm.Park(p.ctx)
	p.nidle.Add(-1)
	if !p.idle.Withdraw(pm) && err != nil {
		// Cancelled while a wakeup was in flight: forward it so the task
		// that triggered it is not stranded with every other worker asleep.
		p.idle.WakeOne()
	}
}

// Stats is a snapshot of the executor's scheduling counters. Every
// executed task was accepted first, so at quiescence (no Submit, Spawn or
// task in flight, e.g. after Shutdown's drain) a snapshot obeys the law
// Gauges checks:
//
//	Executed() <= Submitted + Spawned
type Stats struct {
	// Submitted and Spawned count accepted external and internal tasks.
	Submitted, Spawned uint64
	// LocalHits, InjectHits and Steals classify where executed tasks were
	// found: the worker's own deque, the injection lane, or a victim's.
	LocalHits, InjectHits, Steals uint64
	// Parks counts worker park episodes (idle blocking, not spinning).
	Parks uint64
}

// Executed reports the total tasks run so far.
func (s Stats) Executed() uint64 { return s.LocalHits + s.InjectHits + s.Steals }

// Gauges emits the snapshot under its report gauge keys and returns an
// error when the law of Stats is broken.
func (s Stats) Gauges(emit func(name string, v float64)) error {
	emit("steals", float64(s.Steals))
	emit("local_hits", float64(s.LocalHits))
	emit("inject_hits", float64(s.InjectHits))
	emit("parks", float64(s.Parks))
	emit("executed", float64(s.Executed()))
	emit("submitted", float64(s.Submitted))
	emit("spawned", float64(s.Spawned))
	if s.Executed() > s.Submitted+s.Spawned {
		return fmt.Errorf("pool.Stats: law executed <= submitted + spawned broken (%d > %d + %d)",
			s.Executed(), s.Submitted, s.Spawned)
	}
	return nil
}

// Stats sums the per-worker counters. Counters are monotone; under
// concurrency the snapshot is approximate in the usual Len sense.
func (p *WorkStealing[T]) Stats() Stats {
	st := Stats{
		Submitted: p.submitted.Load(),
	}
	for _, w := range p.workers {
		st.Spawned += w.spawned.Load()
		st.LocalHits += w.localHits.Load()
		st.InjectHits += w.injectHits.Load()
		st.Steals += w.steals.Load()
		st.Parks += w.parks.Load()
	}
	return st
}
