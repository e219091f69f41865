package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/reclaim"
)

const (
	queuePrefill = 1 << 10
	// queueWarmPairs is each client's Enqueue/TryDequeue pairs before
	// timing, enough for the guard pool and node recycler to settle.
	queueWarmPairs = 1 << 16
	// A queued value is its producer in the top 16 bits and that
	// producer's sequence number below.
	producerShift = 48
	seqMask       = 1<<producerShift - 1
)

// seqHash spreads a sequence number so that the sum of hashes of the
// values a producer's consumers saw equals the sum over 0..n-1 only if
// they saw each exactly once (with overwhelming probability).
func seqHash(s uint64) uint64 { return xrand.SplitMix64(&s) }

// seen is what one consumer observed of one producer. A FIFO queue
// hands a single consumer each producer's values in increasing order.
type seen struct {
	last      int64
	count     uint64
	hashSum   uint64
	reordered int64
}

// queueClient is one client's state, kept across windows: its producer
// sequence and its consumer record of every producer. The final drain
// uses one more, whose producer made the prefill.
type queueClient struct {
	next uint64
	seen []seen
	lat  *hist
	// Counters of the current window.
	calls, empty, pendingMax int64
	// pad keeps the clients' hot fields on separate cache lines.
	_ [64]byte
}

type queueWL struct {
	q       *queue.MS[uint64]
	dom     *reclaim.HP
	clients []*queueClient
	calls   int64
}

func newQueueWL(clients int) (workload, error) {
	w := &queueWL{dom: reclaim.NewHP()}
	w.q = queue.NewMS[uint64](queue.WithReclaim(w.dom), queue.WithRecycling())
	for c := 0; c <= clients; c++ {
		// The spare capacity keeps each row off its neighbours' lines.
		qc := &queueClient{seen: make([]seen, clients+1, clients+3), lat: newHist(0)}
		for p := range qc.seen {
			qc.seen[p].last = -1
		}
		w.clients = append(w.clients, qc)
	}
	prefill := w.clients[clients]
	for i := 0; i < queuePrefill; i++ {
		w.q.Enqueue(uint64(clients)<<producerShift | prefill.next)
		prefill.next++
	}
	w.drive(time.Duration(1<<62), queueWarmPairs, nil)
	return w, nil
}

// see checks a dequeued value on behalf of consumer qc.
func (qc *queueClient) see(v uint64) {
	p, s := v>>producerShift, v&seqMask
	if p >= uint64(len(qc.seen)) {
		qc.seen[0].reordered++ // not a value any producer made
		return
	}
	r := &qc.seen[p]
	if int64(s) <= r.last {
		r.reordered++
	}
	r.last = int64(s)
	r.count++
	r.hashSum += seqHash(s)
}

// drive runs the clients (all but the drain) until the deadline passes or
// each has made limit Enqueue/TryDequeue pairs, or (traced) a span buffer
// fills.
func (w *queueWL) drive(deadline time.Duration, limit int, tr *trace) {
	n := len(w.clients) - 1
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		var rec *recorder
		if tr != nil {
			rec = tr.recs[c]
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, deadline, limit, rec)
		}(c)
	}
	wg.Wait()
	for _, qc := range w.clients[:n] {
		w.calls += qc.calls
	}
}

func (w *queueWL) client(c int, deadline time.Duration, limit int, rec *recorder) {
	qc := w.clients[c]
	tag := uint64(c) << producerShift
	seq := qc.next
	var calls, empty, pendingMax int64
	req := uint32(c) << 28
	// The Enqueue is timed from a clock read just before it, so that no
	// sample holds the benchmark's own work between pairs.
	for n, now := 0, since(); n < limit && now < deadline; n++ {
		if rec != nil && rec.full.Load() {
			break
		}
		req++
		start := since()
		w.q.Enqueue(tag | seq)
		mid := since()
		v, ok := w.q.TryDequeue()
		now = since()
		seq++
		qc.lat.record(int64(mid - start))
		qc.lat.record(int64(now - mid))
		calls += 2
		if rec != nil {
			rec.add(spanEnqueue, req, int64(start), int64(mid), noSpan, noSpan)
			name := spanDequeue
			if !ok {
				name = spanDequeueEmpty
			}
			rec.add(name, req, int64(mid), int64(now), noSpan, noSpan)
		}
		if ok {
			qc.see(v)
		} else {
			empty++
		}
		if n&255 == 0 {
			pendingMax = max(pendingMax, w.dom.Pending())
		}
	}
	qc.next = seq
	qc.calls, qc.empty, qc.pendingMax = calls, empty, pendingMax
}

func (w *queueWL) recorders() int { return len(w.clients) - 1 }

func (w *queueWL) window(d time.Duration, tr *trace) window {
	for _, qc := range w.clients {
		qc.lat = newHist(0)
	}
	reclaimed0 := w.dom.Reclaimed()
	before := takeSnapshot()
	w.drive(before.at+d, 1<<62, tr)
	after := takeSnapshot()
	res := window{before: before, after: after, layer: map[string]float64{}}
	var hs []*hist
	var empty, pendingMax int64
	for _, qc := range w.clients[:len(w.clients)-1] {
		res.ops += qc.calls
		empty += qc.empty
		pendingMax = max(pendingMax, qc.pendingMax)
		hs = append(hs, qc.lat)
	}
	res.lat = mergeAll(hs)
	for _, qc := range w.clients {
		qc.lat = nil
	}
	attempts := float64(res.ops / 2)
	dequeued := attempts - float64(empty)
	res.hitRate = ratio(dequeued, attempts)
	res.layer["reclaim.pending_max"] = float64(pendingMax)
	res.layer["reclaim.reclaimed_per_dequeue"] = ratio(float64(w.dom.Reclaimed()-reclaimed0), dequeued)
	return res
}

func (w *queueWL) finish() (attempted, failed int64, violations []string) {
	drain := w.clients[len(w.clients)-1]
	for {
		v, ok := w.q.TryDequeue()
		w.calls++
		if !ok {
			break
		}
		drain.see(v)
	}
	for p, prod := range w.clients {
		n := prod.next
		var count, hashSum uint64
		for c, qc := range w.clients {
			r := qc.seen[p]
			count += r.count
			hashSum += r.hashSum
			if r.reordered > 0 {
				failed += r.reordered
				violations = append(violations, fmt.Sprintf(
					"queue: consumer %d saw %d values of producer %d out of FIFO order, twice, or malformed", c, r.reordered, p))
			}
			if r.last >= int64(n) {
				failed++
				violations = append(violations, fmt.Sprintf(
					"queue: consumer %d saw sequence %d of producer %d, which enqueued only %d", c, r.last, p, n))
			}
		}
		var want uint64
		for s := uint64(0); s < n; s++ {
			want += seqHash(s)
		}
		if count != n || hashSum != want {
			failed++
			violations = append(violations, fmt.Sprintf(
				"queue: producer %d enqueued %d values but %d were dequeued, or some twice", p, n, count))
		}
	}
	return w.calls + queuePrefill, failed, violations
}

func (w *queueWL) close() {}
