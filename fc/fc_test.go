package fc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cds-suite/cds/contend"
)

func TestCombinerAppliesAll(t *testing.T) {
	type counter struct{ n int }
	c := contend.NewCombiner(&counter{})
	workers := 2 * runtime.GOMAXPROCS(0)
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Do(func(s *counter) { s.n++ })
			}
		}()
	}
	wg.Wait()
	var got int
	c.Do(func(s *counter) { got = s.n })
	if want := workers * perWorker; got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestCombinerResultsVisible(t *testing.T) {
	type box struct{ v int }
	c := contend.NewCombiner(&box{v: 7})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				var read int
				c.Do(func(s *box) { read = s.v })
				if read != 7 {
					t.Errorf("read %d, want 7", read)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCombinerSubmissionOrderPerThread(t *testing.T) {
	// Operations submitted by one goroutine apply in program order.
	type log struct{ seen []int }
	c := contend.NewCombiner(&log{})
	var wg sync.WaitGroup
	workers := 4
	const per = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := w*per + i
				c.Do(func(s *log) { s.seen = append(s.seen, v) })
			}
		}(w)
	}
	wg.Wait()
	var snapshot []int
	c.Do(func(s *log) { snapshot = append([]int(nil), s.seen...) })
	if len(snapshot) != workers*per {
		t.Fatalf("applied %d ops, want %d", len(snapshot), workers*per)
	}
	last := make([]int, workers)
	for i := range last {
		last[i] = -1
	}
	for _, v := range snapshot {
		w, seq := v/per, v%per
		if seq <= last[w] {
			t.Fatalf("worker %d: op %d applied after %d", w, seq, last[w])
		}
		last[w] = seq
	}
}

func TestFCQueueFIFO(t *testing.T) {
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			q := NewQueue[int](WithBackend(be))
			if _, ok := q.TryDequeue(); ok {
				t.Fatal("empty queue dequeued")
			}
			for i := 0; i < 100; i++ {
				q.Enqueue(i)
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d", q.Len())
			}
			for i := 0; i < 100; i++ {
				v, ok := q.TryDequeue()
				if !ok || v != i {
					t.Fatalf("TryDequeue = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			st := q.Stats()
			if st.Ops == 0 || st.Batches == 0 {
				t.Fatalf("backend gauges empty after traffic: %+v", st)
			}
			if err := st.Gauges(func(string, float64) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFCStackLIFO(t *testing.T) {
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			s := NewStack[string](WithBackend(be))
			for _, v := range []string{"a", "b", "c"} {
				s.Push(v)
			}
			for _, want := range []string{"c", "b", "a"} {
				v, ok := s.TryPop()
				if !ok || v != want {
					t.Fatalf("TryPop = (%q,%v), want (%q,true)", v, ok, want)
				}
			}
			if _, ok := s.TryPop(); ok {
				t.Fatal("empty stack popped")
			}
		})
	}
}

func TestFCQueueConcurrentConservation(t *testing.T) {
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			testFCQueueConservation(t, be)
		})
	}
}

func testFCQueueConservation(t *testing.T, be contend.Backend) {
	q := NewQueue[int](WithBackend(be))
	producers := runtime.GOMAXPROCS(0)
	const perProducer = 10000
	total := producers * perProducer

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(p*perProducer + i)
			}
		}(p)
	}
	var consumed atomic.Int64
	seen := make([]atomic.Bool, total)
	var cwg sync.WaitGroup
	for cidx := 0; cidx < producers; cidx++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for consumed.Load() < int64(total) {
				if v, ok := q.TryDequeue(); ok {
					if seen[v].Swap(true) {
						t.Errorf("value %d dequeued twice", v)
						return
					}
					consumed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if t.Failed() {
		return
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("value %d lost", i)
		}
	}
}
