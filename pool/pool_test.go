package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// task identifies one unit of work in the conservation tests: [lo, hi) is
// a range of leaf indices; a task over more than one leaf forks.
type task struct {
	lo, hi int
}

// TestSubmitConservation: every externally submitted task runs exactly
// once through a clean drain.
func TestSubmitConservation(t *testing.T) {
	const n = 10000
	var executed [n]atomic.Int32
	p := NewWorkStealing(func(_ *Worker[task], tk task) {
		executed[tk.lo].Add(1)
	}, WithWorkers(4))
	for i := 0; i < n; i++ {
		if !p.Submit(task{lo: i, hi: i + 1}) {
			t.Fatalf("Submit(%d) rejected before shutdown", i)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := range executed {
		if c := executed[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times, want 1", i, c)
		}
	}
	st := p.Stats()
	if st.Executed() != n || st.Submitted != n {
		t.Fatalf("stats executed=%d submitted=%d, want %d", st.Executed(), st.Submitted, n)
	}
}

// TestForkJoinConservation: a task tree built with Worker.Spawn executes
// every leaf exactly once, with Shutdown providing the join.
func TestForkJoinConservation(t *testing.T) {
	const leaves = 1 << 13
	var executed [leaves]atomic.Int32
	p := NewWorkStealing(func(w *Worker[task], tk task) {
		if tk.hi-tk.lo == 1 {
			executed[tk.lo].Add(1)
			return
		}
		mid := (tk.lo + tk.hi) / 2
		w.Spawn(task{lo: tk.lo, hi: mid})
		w.Spawn(task{lo: mid, hi: tk.hi})
	}, WithWorkers(4))
	p.Submit(task{lo: 0, hi: leaves})
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := range executed {
		if c := executed[i].Load(); c != 1 {
			t.Fatalf("leaf %d executed %d times, want 1", i, c)
		}
	}
	if st := p.Stats(); st.Spawned == 0 {
		t.Fatal("fork-join ran without a single Spawn")
	}
}

// TestShutdownDrainUnderConcurrentSubmit: with producers racing Shutdown,
// every accepted task runs exactly once and every rejected one not at all.
func TestShutdownDrainUnderConcurrentSubmit(t *testing.T) {
	const producers, perProducer = 4, 2000
	var executed [producers * perProducer]atomic.Int32
	var accepted [producers * perProducer]atomic.Bool
	p := NewWorkStealing(func(_ *Worker[task], tk task) {
		executed[tk.lo].Add(1)
	}, WithWorkers(3))

	var wg sync.WaitGroup
	start := make(chan struct{})
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			<-start
			for i := 0; i < perProducer; i++ {
				id := pr*perProducer + i
				if p.Submit(task{lo: id, hi: id + 1}) {
					accepted[id].Store(true)
				}
			}
		}(pr)
	}
	close(start)
	runtime.Gosched() // let some submissions land before the drain starts
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i := range executed {
		want := int32(0)
		if accepted[i].Load() {
			want = 1
		}
		if c := executed[i].Load(); c != want {
			t.Fatalf("task %d executed %d times, want %d (accepted=%v)",
				i, c, want, accepted[i].Load())
		}
	}
}

// TestShutdownAbandon: a cancelled Shutdown context abandons queued tasks
// — none run twice, the in-flight tasks complete, the pool terminates,
// and later Shutdowns report the incomplete drain as ErrAbandoned.
func TestShutdownAbandon(t *testing.T) {
	const workers = 2
	const n = 64
	var executed [n]atomic.Int32
	var entered atomic.Int32
	gate := make(chan struct{})
	p := NewWorkStealing(func(_ *Worker[task], tk task) {
		if tk.lo < workers {
			entered.Add(1)
			<-gate // hold every worker until the test cancels
		}
		executed[tk.lo].Add(1)
	}, WithWorkers(workers))
	// Block both workers first, so the remaining submissions can only be
	// abandoned — the drain can never complete before the cancel.
	for i := 0; i < workers; i++ {
		p.Submit(task{lo: i, hi: i + 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatal("workers never picked up the gated tasks")
		}
		time.Sleep(time.Millisecond)
	}
	for i := workers; i < n; i++ {
		p.Submit(task{lo: i, hi: i + 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
		// Give Shutdown time to observe the cancel and stop the pool
		// before the workers are released; a worker freed earlier would
		// still be in the draining state and legally run backlog tasks.
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	if err := p.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	for i := range executed {
		if c := executed[i].Load(); c > 1 {
			t.Fatalf("task %d executed %d times after abandon, want <= 1", i, c)
		}
	}
	if p.Submit(task{lo: 0, hi: 1}) {
		t.Fatal("Submit accepted after abandon")
	}
	// A later Shutdown must not report the abandoned stop as a clean
	// drain: nil is reserved for "every accepted task ran".
	if err := p.Shutdown(context.Background()); err != ErrAbandoned {
		t.Fatalf("Shutdown after abandon = %v, want ErrAbandoned", err)
	}
}

// TestIdleParkAndRewake: workers that have parked idle (the permits path,
// not the spin path) are woken by a later Submit and still run it; an
// abandon-shutdown then unparks them via context cancellation.
func TestIdleParkAndRewake(t *testing.T) {
	var ran atomic.Int32
	p := NewWorkStealing(func(_ *Worker[task], _ task) {
		ran.Add(1)
	}, WithWorkers(4))

	// Wait until at least one worker has actually parked.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Parks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no worker parked while idle")
		}
		time.Sleep(time.Millisecond)
	}
	p.Submit(task{})
	for ran.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("submitted task never ran after parking")
		}
		time.Sleep(time.Millisecond)
	}

	// Park again, then shut down with a cancelled context: the parked
	// workers must be unparked by the pool context and exit.
	for p.Stats().Parks < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not re-park")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownIdempotent: concurrent and repeated Shutdowns all return,
// and a completed drain reports nil even on a cancelled context.
func TestShutdownIdempotent(t *testing.T) {
	p := NewWorkStealing(func(_ *Worker[task], _ task) {}, WithWorkers(2))
	p.Submit(task{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Shutdown(context.Background()); err != nil {
				t.Errorf("concurrent Shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Shutdown(cancelled); err != nil {
		t.Fatalf("Shutdown after drain = %v, want nil (drain already complete)", err)
	}
}

// TestStatsClassifySources: a fork-join run classifies every execution as
// a local hit, injection-lane hit, or steal — nothing uncounted. With one
// worker the classification is deterministic: the root comes from the
// injection lane, every spawned task from the worker's own deque, and
// there is no victim to steal from.
func TestStatsClassifySources(t *testing.T) {
	const leaves = 1 << 12
	for _, workers := range []int{4, 1} {
		p := NewWorkStealing(func(w *Worker[task], tk task) {
			if tk.hi-tk.lo == 1 {
				return
			}
			mid := (tk.lo + tk.hi) / 2
			w.Spawn(task{lo: tk.lo, hi: mid})
			w.Spawn(task{lo: mid, hi: tk.hi})
		}, WithWorkers(workers))
		p.Submit(task{lo: 0, hi: leaves})
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatalf("workers=%d: Shutdown: %v", workers, err)
		}
		st := p.Stats()
		total := uint64(2*leaves - 1) // full binary tree over the leaf range
		if st.Executed() != total {
			t.Fatalf("workers=%d: executed %d, want %d (local=%d inject=%d steals=%d)",
				workers, st.Executed(), total, st.LocalHits, st.InjectHits, st.Steals)
		}
		if st.Submitted+st.Spawned != total {
			t.Fatalf("workers=%d: accepted %d, want %d", workers, st.Submitted+st.Spawned, total)
		}
		if err := st.Gauges(func(string, float64) {}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 && (st.LocalHits != st.Spawned || st.Steals != 0 || st.InjectHits != st.Submitted) {
			t.Fatalf("one worker: local=%d spawned=%d steals=%d inject=%d submitted=%d, want local == spawned, no steals, inject == submitted",
				st.LocalHits, st.Spawned, st.Steals, st.InjectHits, st.Submitted)
		}
	}
	// A hand-built snapshot that ran more tasks than were accepted.
	if err := (Stats{Submitted: 1, Spawned: 1, LocalHits: 2, Steals: 1}).Gauges(func(string, float64) {}); err == nil {
		t.Error("Gauges accepted executed > submitted + spawned")
	}
}

// TestSubmitConservationSegmentedLane re-runs submit conservation with the
// injection lane on the segmented queue: the lane swap must be invisible
// to the exactly-once guarantee and to the inject-hit accounting.
func TestSubmitConservationSegmentedLane(t *testing.T) {
	const n = 10000
	var executed [n]atomic.Int32
	p := NewWorkStealing(func(_ *Worker[task], tk task) {
		executed[tk.lo].Add(1)
	}, WithWorkers(4), WithInjectionLane(LaneSegmented))
	for i := 0; i < n; i++ {
		if !p.Submit(task{lo: i, hi: i + 1}) {
			t.Fatalf("Submit(%d) rejected before shutdown", i)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := range executed {
		if c := executed[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times, want 1", i, c)
		}
	}
	st := p.Stats()
	if st.Executed() != n || st.Submitted != n {
		t.Fatalf("stats executed=%d submitted=%d, want %d", st.Executed(), st.Submitted, n)
	}
	if st.InjectHits == 0 {
		t.Fatal("segmented lane never served a task")
	}
}

// TestForkJoinSegmentedLane drives the spawn/steal path with the
// segmented lane underneath, exercising lane dequeues racing worker
// steals.
func TestForkJoinSegmentedLane(t *testing.T) {
	const leaves = 1 << 12
	var executed [leaves]atomic.Int32
	p := NewWorkStealing(func(w *Worker[task], tk task) {
		if tk.hi-tk.lo == 1 {
			executed[tk.lo].Add(1)
			return
		}
		mid := (tk.lo + tk.hi) / 2
		w.Spawn(task{lo: tk.lo, hi: mid})
		w.Spawn(task{lo: mid, hi: tk.hi})
	}, WithWorkers(4), WithInjectionLane(LaneSegmented))
	p.Submit(task{lo: 0, hi: leaves})
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := range executed {
		if c := executed[i].Load(); c != 1 {
			t.Fatalf("leaf %d executed %d times, want 1", i, c)
		}
	}
}
