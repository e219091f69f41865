package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Span names. Each is one public call the benchmark makes into the
// library, except spanTask, which is the pool handler the benchmark
// supplies.
const (
	spanGetHit uint8 = iota
	spanGetMiss
	spanSet
	spanEnqueue
	spanDequeue
	spanDequeueEmpty
	spanSubmit
	spanSpawn
	spanTask
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"cache.Get/hit", "cache.Get/miss", "cache.Set",
	"queue.Enqueue", "queue.TryDequeue", "queue.TryDequeue/empty",
	"pool.Submit", "pool.Worker.Spawn", "pool.task",
}

// noSpan marks an absent parent or link.
const noSpan = ^uint32(0)

// span is one recorded interval. A span's id is its recorder index in the
// top 8 bits and its slot below. parent is the span that caused it: for a
// Spawn call the task making it (a synchronous child, whose time is
// excluded from the parent's self time), for a pool task the task that
// spawned it (an asynchronous child, which runs elsewhere and is not).
// link is the call that handed a pool task over: the Submit or Spawn span.
// Spans of one request share req.
type span struct {
	start, end   int64
	parent, link uint32
	req          uint32
	name         uint8
}

// recorder is one goroutine's preallocated span buffer. Only its owner
// writes it; the runner reads it once the owner has stopped.
type recorder struct {
	id    uint32
	spans []span
	n     int
	full  *atomic.Bool
}

const slotBits = 24

// trace owns the recorders of one traced window. When any recorder is
// three quarters full the window stops issuing new requests, so requests
// already in flight still fit.
type trace struct {
	recs []*recorder
	full atomic.Bool
}

func newTrace(recorders, capacity int) *trace {
	t := &trace{}
	for i := 0; i < recorders; i++ {
		t.recs = append(t.recs, &recorder{id: uint32(i) << slotBits, spans: make([]span, capacity), full: &t.full})
	}
	return t
}

// open reserves a span slot and returns its id, or noSpan when the buffer
// is exhausted.
func (r *recorder) open() uint32 {
	if r.n == len(r.spans) {
		return noSpan
	}
	i := r.n
	r.n++
	if r.n >= len(r.spans)*3/4 {
		r.full.Store(true)
	}
	return r.id | uint32(i)
}

// fill completes a span opened with open.
func (r *recorder) fill(id uint32, s span) {
	if id != noSpan {
		r.spans[id&(1<<slotBits-1)] = s
	}
}

// add records a complete span and returns its id.
func (r *recorder) add(name uint8, req uint32, start, end int64, parent, link uint32) uint32 {
	id := r.open()
	r.fill(id, span{start: start, end: end, parent: parent, link: link, req: req, name: name})
	return id
}

func (t *trace) span(id uint32) *span {
	return &t.recs[id>>slotBits].spans[id&(1<<slotBits-1)]
}

// layerStats are the per-layer figures derived from a trace: per span name
// a histogram of self time, plus the hand-over waits of pool tasks.
type layerStats struct {
	self      [numSpanNames]*hist
	queueWait *hist // Submit return -> root task start
	spawnWait *hist // Spawn call -> child task start
	spans     int
}

// analyse computes self times: a span's duration minus the part covered by
// its synchronous children (Spawn calls inside a task).
func (t *trace) analyse() layerStats {
	var ls layerStats
	for i := range ls.self {
		ls.self[i] = newHist(0)
	}
	ls.queueWait, ls.spawnWait = newHist(4), newHist(4)
	covered := make([][]int64, len(t.recs))
	for i, r := range t.recs {
		covered[i] = make([]int64, r.n)
	}
	for _, r := range t.recs {
		for _, s := range r.spans[:r.n] {
			if s.name == spanSpawn && s.parent != noSpan {
				covered[s.parent>>slotBits][s.parent&(1<<slotBits-1)] += s.end - s.start
			}
		}
	}
	for ri, r := range t.recs {
		ls.spans += r.n
		for i, s := range r.spans[:r.n] {
			ls.self[s.name].record(s.end - s.start - covered[ri][i])
			if s.name != spanTask || s.link == noSpan {
				continue
			}
			switch l := t.span(s.link); l.name {
			case spanSubmit:
				ls.queueWait.record(s.start - l.end)
			case spanSpawn:
				ls.spawnWait.record(s.start - l.start)
			}
		}
	}
	return ls
}

// write stores the spans as CSV, one line per span, in dir/<name>.spans.csv.
func (t *trace) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,name,req,parent,link,start_ns,end_ns")
	for _, r := range t.recs {
		for i, s := range r.spans[:r.n] {
			fmt.Fprintf(w, "%d,%s,%d,%s,%s,%d,%d\n", r.id|uint32(i), spanNames[s.name], s.req,
				spanRef(s.parent), spanRef(s.link), s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

func spanRef(id uint32) string {
	if id == noSpan {
		return ""
	}
	return fmt.Sprint(id)
}
