package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/pool"
)

const (
	// Each root job forks a binary tree poolDepth levels deep through
	// Worker.Spawn: poolTasks tasks in all.
	poolDepth = 5
	poolTasks = 1<<(poolDepth+1) - 1
	// poolWork is each task's fixed arithmetic, in SplitMix64 steps.
	poolWork = 64
	// poolWarmRoots run before timing, in bursts of poolWarmBurst.
	poolWarmRoots = 4000
	poolWarmBurst = 20
)

type poolTask struct {
	root         int32
	depth        int32
	parent, link uint32
}

type poolRoot struct {
	// client is the closed-loop client waiting for the root, or -1 for a
	// warm-up root; it is written before the Submit that publishes the
	// root.
	client int32
	// job numbers a client's jobs, which share one record.
	job  uint32
	done atomic.Int32
}

// poolWorker is one executor goroutine's private state, written only by
// handlers that pool worker runs.
type poolWorker struct {
	handled int64
	sink    uint64
	rec     *recorder
	// pad keeps the workers' counters on separate cache lines.
	_ [64]byte
}

// poolClient is one closed-loop caller: it submits a root job, waits until
// the job's last task has run, and submits the next.
type poolClient struct {
	root     int           // its root record, reused for every job
	done     chan struct{} // signalled by the task that completes the root
	lat      *hist
	short    int64
	rejected int64
	// pad keeps the clients' counters on separate cache lines.
	_ [64]byte
}

type poolWL struct {
	p        *pool.WorkStealing[poolTask]
	workers  []*poolWorker
	clients  []*poolClient
	roots    []poolRoot
	rejected int64
}

// newPoolWL sets up the fork-join pool workload, a closed loop of one
// client per worker, and warms the pool with poolWarmRoots root jobs.
func newPoolWL(workers int) (workload, error) {
	w := &poolWL{roots: make([]poolRoot, poolWarmRoots+workers)}
	for c := 0; c < workers; c++ {
		w.clients = append(w.clients, &poolClient{root: poolWarmRoots + c, done: make(chan struct{}, 1)})
		w.roots[poolWarmRoots+c].client = int32(c)
		w.workers = append(w.workers, &poolWorker{})
	}
	w.p = pool.NewWorkStealing(w.handle, pool.WithWorkers(workers))
	for next := 0; next < poolWarmRoots; {
		for j := 0; j < poolWarmBurst; j++ {
			w.roots[next].client = -1
			if !w.p.Submit(poolTask{root: int32(next), parent: noSpan, link: noSpan}) {
				w.rejected++
			}
			next++
		}
		if err := w.waitIdle(); err != nil {
			return w, err
		}
	}
	return w, nil
}

// reqID names a root job in spans by its client and job number.
func (w *poolWL) reqID(root int32) uint32 {
	r := &w.roots[root]
	return uint32(r.client)<<24 | r.job&(1<<24-1)
}

// handle is the pool handler: fork two children until poolDepth, do the
// fixed work, and wake the root's client when its last task finishes.
func (w *poolWL) handle(wk *pool.Worker[poolTask], t poolTask) {
	ws := w.workers[wk.ID()]
	start := since()
	self := noSpan
	if ws.rec != nil {
		self = ws.rec.open()
	}
	if t.depth < poolDepth {
		for i := 0; i < 2; i++ {
			child := poolTask{root: t.root, depth: t.depth + 1, parent: self, link: noSpan}
			if ws.rec == nil {
				wk.Spawn(child)
				continue
			}
			child.link = ws.rec.open()
			s0 := since()
			wk.Spawn(child)
			ws.rec.fill(child.link, span{start: int64(s0), end: int64(since()), parent: self,
				link: noSpan, req: w.reqID(t.root), name: spanSpawn})
		}
	}
	x := uint64(t.root)<<8 | uint64(t.depth)
	for i := 0; i < poolWork; i++ {
		xrand.SplitMix64(&x)
	}
	ws.sink += x
	ws.handled++
	if ws.rec != nil {
		ws.rec.fill(self, span{start: int64(start), end: int64(since()), parent: t.parent,
			link: t.link, req: w.reqID(t.root), name: spanTask})
	}
	r := &w.roots[t.root]
	if r.done.Add(1) == poolTasks && r.client >= 0 {
		w.clients[r.client].done <- struct{}{}
	}
}

// waitIdle waits until every accepted task has run.
func (w *poolWL) waitIdle() error {
	for deadline := since() + 30*time.Second; w.p.Pending() > 0; {
		if since() > deadline {
			return fmt.Errorf("pool: %d tasks still pending 30s after the last submission", w.p.Pending())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// client is closed-loop client c: submit a root job, wait for its last
// task, repeat until the deadline or (traced) a full span buffer. A job's
// latency runs from just before its Submit to the wake-up of its client.
func (w *poolWL) client(c int, deadline time.Duration, rec *recorder) {
	pc := w.clients[c]
	r := &w.roots[pc.root]
	for since() < deadline && (rec == nil || !rec.full.Load()) {
		r.done.Store(0)
		r.job++
		t := poolTask{root: int32(pc.root), parent: noSpan, link: noSpan}
		var ok bool
		start := since()
		if rec == nil {
			ok = w.p.Submit(t)
		} else {
			t.link = rec.open()
			ok = w.p.Submit(t)
			rec.fill(t.link, span{start: int64(start), end: int64(since()), parent: noSpan,
				link: noSpan, req: w.reqID(t.root), name: spanSubmit})
		}
		if !ok {
			pc.rejected++
			return
		}
		<-pc.done
		pc.lat.record(int64(since() - start))
		if r.done.Load() != poolTasks {
			pc.short++
		}
	}
}

// recorders: one per worker, then one per client.
func (w *poolWL) recorders() int { return len(w.workers) + len(w.clients) }

func (w *poolWL) window(d time.Duration, tr *trace) window {
	for i, ws := range w.workers {
		ws.rec = nil
		if tr != nil {
			ws.rec = tr.recs[i]
		}
	}
	var hs []*hist
	for _, pc := range w.clients {
		pc.lat = newHist(6)
		hs = append(hs, pc.lat)
	}
	st0 := w.p.Stats()
	before := takeSnapshot()
	var wg sync.WaitGroup
	for c := range w.clients {
		var rec *recorder
		if tr != nil {
			rec = tr.recs[len(w.workers)+c]
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, before.at+d, rec)
		}(c)
	}
	wg.Wait()
	after := takeSnapshot()
	st1 := w.p.Stats()
	res := window{before: before, after: after, layer: map[string]float64{}}
	if err := w.waitIdle(); err != nil {
		res.violations = append(res.violations, err.Error())
	}
	res.lat = mergeAll(hs)
	for _, pc := range w.clients {
		pc.lat = nil
	}
	executed := float64(st1.Executed() - st0.Executed())
	res.ops = int64(executed)
	res.hitRate = ratio(float64(st1.LocalHits-st0.LocalHits), executed)
	res.layer["pool.parks_per_ktask"] = ratio(1000*float64(st1.Parks-st0.Parks), executed)
	res.layer["pool.steal_ratio"] = ratio(float64(st1.Steals-st0.Steals), executed)
	res.layer["pool.local_hit_ratio"] = res.hitRate
	res.layer["pool.inject_hit_ratio"] = ratio(float64(st1.InjectHits-st0.InjectHits), executed)
	return res
}

func (w *poolWL) finish() (attempted, failed int64, violations []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.p.Shutdown(ctx); err != nil {
		violations = append(violations, fmt.Sprintf("pool: shutdown did not drain: %v", err))
	}
	st := w.p.Stats()
	var handled int64
	for _, ws := range w.workers {
		handled += ws.handled
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	check(st.Executed() == st.Submitted+st.Spawned, "pool: executed %d != submitted %d + spawned %d",
		st.Executed(), st.Submitted, st.Spawned)
	check(int64(st.Executed()) == handled, "pool: executed %d != tasks the handler saw %d", st.Executed(), handled)
	short, rejected := int64(0), w.rejected
	for i := range w.roots[:poolWarmRoots] {
		if w.roots[i].done.Load() != poolTasks {
			short++
		}
	}
	for _, pc := range w.clients {
		short += pc.short
		rejected += pc.rejected
	}
	check(short == 0, "pool: %d root jobs did not run exactly %d tasks", short, poolTasks)
	check(rejected == 0, "pool: %d Submit calls were refused", rejected)
	failed = int64(len(violations)) + rejected + short
	return int64(st.Submitted+st.Spawned) + rejected, failed, violations
}

func (w *poolWL) close() {
	// Shutdown is idempotent; finish has already drained a pool that ran.
	_ = w.p.Shutdown(context.Background())
}
