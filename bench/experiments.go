package bench

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/counter"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/stack"
)

// Config controls an experiment run.
type Config struct {
	// Threads is the sweep of worker counts; nil selects the default
	// ladder up to GOMAXPROCS.
	Threads []int
	// Ops is the per-worker operation count; 0 selects per-experiment
	// defaults.
	Ops int
	// Quick divides the workload for smoke runs.
	Quick bool
}

func (c Config) threads() []int {
	if len(c.Threads) > 0 {
		return c.Threads
	}
	return DefaultThreadSweep(runtime.GOMAXPROCS(0))
}

func (c Config) ops(def int) int {
	n := c.Ops
	if n == 0 {
		n = def
	}
	if c.Quick && n > 10000 {
		n = 10000
	}
	return n
}

// Experiment is one reproducible figure or table of the suite
// (`cdsbench -list` names them all): a set of scenarios whose records it
// renders together.
type Experiment struct {
	// ID is the suite identifier (F1..F12, T1..T3, S1..S18, A1..A5).
	ID string
	// Title describes what the experiment shows.
	Title string
	// XLabel names the sweep its scenarios declare in Xs; empty means
	// the thread count.
	XLabel string
	// Scenarios are the experiment's cells.
	Scenarios []Scenario
}

// Records measures every cell of the experiment, failing on the first
// cell whose gauges break a declared law.
func (e Experiment) Records(cfg Config) ([]Record, error) {
	var recs []Record
	for _, s := range e.Scenarios {
		r, err := s.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		recs = append(recs, r...)
	}
	return recs, nil
}

// Experiments returns the full suite: the survey's figures (F) and tables
// (T) followed by the mixed-workload scenario matrix (S experiments).
func Experiments() []Experiment {
	th := runtime.GOMAXPROCS(0)
	return append([]Experiment{
		{ID: "F1", Title: "Spin-lock scalability (tiny critical section)", Scenarios: f1()},
		{ID: "F2", Title: "Shared counter throughput", Scenarios: f2()},
		{ID: "F3", Title: "Stack algorithms, 50/50 push-pop", Scenarios: []Scenario{{
			Family: "stack", Name: "F3: stack ops/sec, 50/50 push-pop, prefill 1k",
			Algos: cells(stackImpls(), func(mk func() cds.Stack[int], cfg Config, th int) Result {
				st := mk()
				prefill(1024, st.Push)
				return Run(th, cfg.ops(300000)/th+1, stackMixOp(st))
			})}}},
		{ID: "F4", Title: "Queue algorithms, 50/50 enq-deq", Scenarios: []Scenario{{
			Family: "queue", Name: "F4: queue ops/sec, 50/50 enq-deq, prefill 1k",
			Algos: cells(queueImpls(), func(mk func() cds.Queue[int], cfg Config, th int) Result {
				q := mk()
				prefill(1024, q.Enqueue)
				return Run(th, cfg.ops(300000)/th+1, opsQueue(q))
			})}}},
		{ID: "F5", Title: "List-based set progression, 90% reads", Scenarios: []Scenario{{
			Family: "list", Name: "F5: sorted-list sets, 90% contains / 5% add / 5% remove, keys 0..1023",
			Algos: cells(listImpls(), func(mk func() cds.Set[int], cfg Config, th int) Result {
				set := mk()
				prefillSet(set, 1024, 99)
				return Run(th, cfg.ops(100000)/th+1, setMixOp(set, 1024, 90))
			})}}},
		{ID: "F6", Title: "Hash map scalability by read ratio and skew", Scenarios: f6()},
		{ID: "F7", Title: "Skip list scalability, 90/5/5 mix", Scenarios: []Scenario{{
			Family: "skiplist", Name: "F7: skip lists, 90% contains / 5% add / 5% remove, keys 0..65535",
			Algos: cells(skiplistImpls(), func(mk func() cds.Set[int], cfg Config, th int) Result {
				set := mk()
				prefillSet(set, 1<<16, 3)
				return Run(th, cfg.ops(200000)/th+1, setMixOp(set, 1<<16, 90))
			})}}},
		{ID: "F8", Title: "Priority queues, 50/50 insert-deleteMin", Scenarios: []Scenario{{
			Family: "pqueue", Name: "F8: priority queues, 50/50 insert-deleteMin, prefill 4k",
			Algos: cells(pqueueImpls(), func(mk func() cds.PriorityQueue[int], cfg Config, th int) Result {
				pq := mk()
				prefillPQ(pq)
				return Run(th, cfg.ops(100000)/th+1, func(w int) func(int) {
					rng := xrand.New(uint64(w) + 17)
					return func(int) {
						if rng.Uint64()&1 == 0 {
							pq.Insert(rng.Intn(1 << 20))
						} else {
							pq.TryDeleteMin()
						}
					}
				})
			})}}},
		{ID: "F9", Title: "Work-stealing deque vs. locked deque", XLabel: "stealers", Scenarios: f9(th)},
		{ID: "F10", Title: "Barrier episode throughput", Scenarios: []Scenario{{
			Family: "barrier", Name: "F10: barrier episodes per second (Mops column = M episodes/s × threads)",
			Algos: cells(barrierImpls(), func(mk func(n int) []waiter, cfg Config, th int) Result {
				hs := mk(th)
				return Run(th, cfg.ops(20000), func(w int) func(int) {
					h := hs[w]
					return func(int) { h.Wait() }
				})
			})}}},
		{ID: "F11", Title: "STM bank transfers vs. global lock", Scenarios: []Scenario{
			{Family: "stm", Name: "F11: bank transfers/s, 64 accounts", Algos: cells(bankImpls(64), bankCell(Run, 64, 100000))},
			{Family: "stm", Name: "F11: bank transfers/s, 65536 accounts", Algos: cells(bankImpls(1<<16), bankCell(Run, 1<<16, 100000))},
		}},
		{ID: "F12", Title: "Memory reclamation on the lock-free structures: GC vs. EBR vs. HP vs. recycled", Scenarios: f12()},
		{ID: "T1", Title: "Single-thread throughput overview (Mops/s; ns/op = 1000/Mops)", XLabel: "thread", Scenarios: t1()},
		{ID: "T2", Title: "Contention sensitivity under Zipf skew (maps, full threads)", XLabel: "theta*100", Scenarios: []Scenario{{
			Family: "cmap", Name: fmt.Sprintf("T2: map throughput at %d threads vs. Zipf skew (X = θ×100), 50%% reads", th),
			Xs: []int{0, 50, 90, 110},
			Algos: cells(mapImpls(), func(mk func() cds.Map[int, int], cfg Config, x int) Result {
				m := mk()
				prefillMap(m, 1<<16)
				return Run(th, cfg.ops(200000)/th+1, mapMixOp(m, 1<<16, float64(x)/100, 50))
			})}}},
		{ID: "T3", Title: "Elimination hit rate (column = hits per 100 visits)", Scenarios: []Scenario{{
			Family: "stack", Name: "T3: elimination-backoff stack: hits per 100 elimination visits",
			Algos: []ScenarioAlgo{{Label: "Elimination", Run: func(cfg Config, th int) Result {
				st := stack.NewElimination[int](0, 0)
				st.EnableStats(true)
				res := Run(th, cfg.ops(200000)/th+1, func(w int) func(int) {
					rng := xrand.New(uint64(w) + 41)
					return func(int) {
						if rng.Uint64()&1 == 0 {
							st.Push(1)
						} else {
							st.TryPop()
						}
					}
				})
				res.Metrics = []Metric{hitRate(st)}
				return res
			}}}}}},
	}, ScenarioExperiments()...)
}

// ScenarioExperiments exposes the workload-mix matrix of bench/scenario.go
// as one experiment per structure family (S1, S2, ...): each runs at
// least two scenario mixes per family with per-operation latency sampling,
// rendered as throughput and p99 tables in text mode and as latency-rich
// records in a JSON Report.
func ScenarioExperiments() []Experiment {
	var exps []Experiment
	index := map[string]int{}
	for _, s := range Scenarios() {
		i, ok := index[s.Family]
		if !ok {
			i = len(exps)
			index[s.Family] = i
			exps = append(exps, Experiment{
				ID:    fmt.Sprintf("S%d", i+1),
				Title: fmt.Sprintf("Scenario mixes: %s (throughput + p99 latency)", s.Family),
			})
		}
		exps[i].Scenarios = append(exps[i].Scenarios, s)
	}
	return exps
}

// BuildReport runs the given experiments (as selected by cmd/cdsbench)
// and assembles their records into a Report, failing on the first cell
// whose gauges break a declared law.
func BuildReport(cfg Config, exps []Experiment) (Report, error) {
	rep := Report{Schema: ReportSchema, Meta: NewMeta(cfg.Quick)}
	rep.Summary = RunSummary(rep.Meta)
	for _, e := range exps {
		recs, err := e.Records(cfg)
		if err != nil {
			return Report{}, err
		}
		rep.Records = append(rep.Records, recs...)
	}
	return rep, nil
}

// Find returns the experiment with the given ID, searching the main suite
// and the ablations.
func Find(id string) (Experiment, bool) {
	for _, e := range append(Experiments(), Ablations()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render writes the experiment's records as aligned text tables, one per
// scenario in first-seen order: a row per sweep value, a column per
// algorithm, in the shape the survey's figures use. Scenarios whose cells
// sampled latency get a second table of p99 latencies.
func (e Experiment) Render(w io.Writer, recs []Record) error {
	xlabel := cmp.Or(e.XLabel, "threads")
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", e.ID, e.Title)
	var order []string
	groups := map[string][]Record{}
	for _, r := range recs {
		if _, ok := groups[r.Scenario]; !ok {
			order = append(order, r.Scenario)
		}
		groups[r.Scenario] = append(groups[r.Scenario], r)
	}
	for _, name := range order {
		g := groups[name]
		var units []string
		for _, r := range g {
			if !slices.Contains(units, r.Unit) {
				units = append(units, r.Unit)
			}
		}
		renderTable(&b, fmt.Sprintf("%s (%s)", name, strings.Join(units, ", ")), xlabel, g,
			func(r Record) float64 { return r.Value })
		if g[0].Samples > 0 {
			renderTable(&b, name+": p99 latency (µs)", xlabel, g,
				func(r Record) float64 { return float64(r.P99Ns) / 1e3 })
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderTable writes one table: a row per sweep value, a column per algo.
func renderTable(b *strings.Builder, title, xlabel string, recs []Record, val func(Record) float64) {
	var algos []string
	var xs []int
	cell := map[string]map[int]float64{}
	for _, r := range recs {
		if cell[r.Algo] == nil {
			algos = append(algos, r.Algo)
			cell[r.Algo] = map[int]float64{}
		}
		if !slices.Contains(xs, r.Threads) {
			xs = append(xs, r.Threads)
		}
		cell[r.Algo][r.Threads] = val(r)
	}
	slices.Sort(xs)
	fmt.Fprintf(b, "== %s ==\n%-10s", title, xlabel)
	for _, a := range algos {
		fmt.Fprintf(b, " %14s", a)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(b, "%-10d", x)
		for _, a := range algos {
			v, ok := cell[a][x]
			s := "-"
			if ok {
				s = fmt.Sprintf("%.3f", v)
			}
			fmt.Fprintf(b, " %14s", s)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
}

// --- figure cells --------------------------------------------------------------

func f1() []Scenario {
	return []Scenario{{Family: "locks", Name: "F1: lock throughput, counter critical section",
		Algos: cells(lockImpls(), func(mk func() func() sync.Locker, cfg Config, th int) Result {
			locker := mk()
			shared := 0
			return Run(th, cfg.ops(200000)/th+1, func(int) func(int) {
				l := locker()
				return func(int) {
					l.Lock()
					shared++
					l.Unlock()
				}
			})
		})}}
}

func f2() []Scenario {
	// Counters that hand out per-worker handles are driven through them.
	algos := cells(pick(counterImpls(), "Locked", "Atomic", "Sharded", "Approx"), func(mk func() cds.Counter, cfg Config, th int) Result {
		c := mk()
		return Run(th, cfg.ops(500000)/th+1, func(int) func(int) {
			if s, ok := c.(*counter.Sharded); ok {
				h := s.Handle()
				return func(int) { h.Inc() }
			}
			return func(int) { c.Inc() }
		})
	})
	algos = append(algos, ScenarioAlgo{Label: "CombiningTree", Run: func(cfg Config, th int) Result {
		c := counter.NewCombiningTree(th)
		return Run(th, cfg.ops(500000)/th+1, func(w int) func(int) {
			h := c.Handle(w)
			return func(int) { h.Inc() }
		})
	}})
	return []Scenario{{Family: "counter", Name: "F2: counter increment throughput", Algos: algos}}
}

func f6() []Scenario {
	const keyRange = 1 << 16
	var scens []Scenario
	for _, dist := range []struct {
		name  string
		theta float64
	}{{"uniform", 0}, {"zipf0.99", 0.99}} {
		for _, readPct := range []uint64{50, 90, 99} {
			scens = append(scens, Scenario{
				Family: "cmap",
				Name:   fmt.Sprintf("F6: hash maps, %d%% reads, %s keys 0..%d", readPct, dist.name, keyRange-1),
				Algos: cells(mapImpls(), func(mk func() cds.Map[int, int], cfg Config, th int) Result {
					m := mk()
					prefillMap(m, keyRange)
					return Run(th, cfg.ops(200000)/th+1, mapMixOp(m, keyRange, dist.theta, readPct))
				}),
			})
		}
	}
	return scens
}

// f9 measures work-stealing system throughput against the stealer count:
// the owner produces tasks in bursts and executes what it pops locally;
// thieves execute what they steal. The metric is completed tasks per
// second — counting only the owner's ops would treat every successful
// steal (the deque's whole purpose) as lost work. Each task is ~300ns of
// computation, the fine-grained regime work stealing targets.
func f9(th int) []Scenario {
	var sweep []int
	for k := 0; k <= max(th-1, 1); k = max(2*k, 1) {
		sweep = append(sweep, k)
	}
	const burst = 32
	taskWork := func(seed uint64) uint64 {
		for k := 0; k < 64; k++ {
			seed = xrand.SplitMix64(&seed)
		}
		return seed
	}
	return []Scenario{{Family: "deque", Name: "F9: work-stealing system throughput (M tasks/s, ~300ns tasks) vs. stealers",
		Xs: sweep,
		Algos: cells(pick(dequeImpls(), "ChaseLev", "MutexDeque"), func(mk func() cds.Deque[int], cfg Config, thieves int) Result {
			ownerOps := cfg.ops(2000000)
			d := mk()
			var (
				wg       sync.WaitGroup
				stop     atomic.Bool
				consumed atomic.Int64
			)
			for t := 0; t < thieves; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					sink := uint64(t)
					for !stop.Load() {
						if v, ok := d.TryPopTop(); ok {
							sink = taskWork(uint64(v))
							consumed.Add(1)
						}
					}
					_ = sink
				}(t)
			}
			t0 := time.Now()
			var sink uint64
			for i := 0; i < ownerOps/burst; i++ {
				for j := 0; j < burst; j++ {
					d.PushBottom(j)
				}
				for {
					v, ok := d.TryPopBottom()
					if !ok {
						break
					}
					sink = taskWork(uint64(v))
					consumed.Add(1)
				}
			}
			// Drain stragglers (tasks the thieves have not picked up yet).
			for consumed.Load() < int64(ownerOps/burst*burst) {
				if v, ok := d.TryPopBottom(); ok {
					sink = taskWork(uint64(v))
					consumed.Add(1)
				}
			}
			elapsed := time.Since(t0)
			stop.Store(true)
			wg.Wait()
			_ = sink
			return Result{Workers: thieves + 1, Ops: consumed.Load(), Elapsed: elapsed}
		})}}
}

// f12 measures every lock-free structure under the reclamation variant
// sweep on a delete-heavy churn mix — the regime where unlink and retire
// traffic dominates — reporting throughput, latency percentiles, and the
// pending-garbage gauges.
func f12() []Scenario {
	return []Scenario{
		{Family: "reclaim", Name: "F12: stack churn 50/50", Algos: cells(withPrefix("Treiber/", reclaimVariants()), f12Stack)},
		{Family: "reclaim", Name: "F12: queue churn 50/50", Algos: cells(withPrefix("MS/", reclaimVariants()), f12Queue)},
		{Family: "reclaim", Name: "F12: list delete-heavy 40/40/20",
			Algos: cells(withPrefix("Harris/", reclaimVariants()), func(v reclaimVariant, cfg Config, th int) Result {
				return reclaimListChurn(v, th, cfg.ops(100000), 512)
			})},
		{Family: "reclaim", Name: "F12: map delete-heavy 40/40/20",
			Algos: cells(withPrefix("SplitOrdered/", reclaimVariants()), func(v reclaimVariant, cfg Config, th int) Result {
				return reclaimMapChurn(v, th, cfg.ops(100000), 1<<12)
			})},
		{Family: "reclaim", Name: "F12: skiplist delete-heavy 40/40/20",
			Algos: cells(withPrefix("LockFree/", pick(reclaimVariants(), "GC", "EBR", "HP")), f12Skiplist)},
	}
}

func f12Stack(v reclaimVariant, cfg Config, th int) Result {
	dom := v.dom()
	opts := []stack.Option{stack.WithReclaim(dom)}
	if v.recycle {
		opts = append(opts, stack.WithRecycling())
	}
	st := stack.NewTreiber[int](opts...)
	prefill(256, st.Push)
	res := RunLatency(th, cfg.ops(100000)/th+1, func(w int) func(int) {
		mix := NewMixGen(uint64(w)*7919+1, 50, 50)
		return func(i int) {
			if mix.Next() == 0 {
				st.Push(i)
			} else {
				st.TryPop()
			}
		}
	})
	res.gauge(dom)
	return res
}

func f12Queue(v reclaimVariant, cfg Config, th int) Result {
	dom := v.dom()
	opts := []queue.Option{queue.WithReclaim(dom)}
	if v.recycle {
		opts = append(opts, queue.WithRecycling())
	}
	q := queue.NewMS[int](opts...)
	prefill(256, q.Enqueue)
	res := RunLatency(th, cfg.ops(100000)/th+1, func(w int) func(int) {
		mix := NewMixGen(uint64(w)*7919+3, 50, 50)
		return func(i int) {
			if mix.Next() == 0 {
				q.Enqueue(i)
			} else {
				q.TryDequeue()
			}
		}
	})
	res.gauge(dom)
	return res
}

func f12Skiplist(v reclaimVariant, cfg Config, th int) Result {
	const keyRange = 1 << 12
	s, dom := lockFreeSkiplist(v, keyRange)
	res := RunLatency(th, cfg.ops(100000)/th+1, func(w int) func(int) {
		mix := NewMixGen(uint64(w)*13+17, 40, 40, 20)
		rng := xrand.New(uint64(w) + 17)
		return func(int) {
			k := rng.Intn(keyRange)
			switch mix.Next() {
			case 0:
				s.Add(k)
			case 1:
				s.Remove(k)
			default:
				s.Contains(k)
			}
		}
	})
	res.gauge(dom)
	return res
}

// t1 is the single-thread overview: one table across families, each row
// labelled family.algo and filed under its own family.
func t1() []Scenario {
	const name = "T1: single-thread throughput (Mops/s)"
	row := func(label string, op func() func(i int)) ScenarioAlgo {
		return ScenarioAlgo{Label: label, Run: func(cfg Config, _ int) Result {
			return Run(1, cfg.ops(1000000), func(int) func(int) { return op() })
		}}
	}
	var stacks, queues, maps, skips []ScenarioAlgo
	for _, im := range pick(stackImpls(), "Mutex", "Treiber") {
		stacks = append(stacks, row("stack."+im.label, func() func(int) {
			s := im.mk()
			return func(i int) {
				s.Push(i)
				s.TryPop()
			}
		}))
	}
	for _, im := range pick(queueImpls(), "Mutex", "MS") {
		queues = append(queues, row("queue."+im.label, func() func(int) {
			q := im.mk()
			return func(i int) {
				q.Enqueue(i)
				q.TryDequeue()
			}
		}))
	}
	queues = append(queues, row("queue.SPSC", func() func(int) {
		q := queue.NewSPSC[int](1024)
		return func(i int) {
			q.TryEnqueue(i)
			q.TryDequeue()
		}
	}))
	for j, im := range pick(mapImpls(), "Locked", "Striped", "SplitOrdered") {
		maps = append(maps, row([]string{"cmap.Locked", "cmap.Striped", "cmap.SplitOrd"}[j], func() func(int) {
			m := im.mk()
			return func(i int) {
				m.Store(i&1023, i)
				m.Load(i & 1023)
			}
		}))
	}
	for _, im := range skiplistImpls() {
		skips = append(skips, row("skip."+im.label, func() func(int) {
			s := im.mk()
			return func(i int) {
				s.Add(i & 4095)
				s.Contains(i & 4095)
			}
		}))
	}
	one := []int{1}
	return []Scenario{
		{Family: "stack", Name: name, Xs: one, Algos: stacks},
		{Family: "queue", Name: name, Xs: one, Algos: queues},
		{Family: "cmap", Name: name, Xs: one, Algos: maps},
		{Family: "skiplist", Name: name, Xs: one, Algos: skips},
	}
}

// hitRate is the share of elimination visits, in percent, that paired off
// on an elimination stack with statistics enabled.
func hitRate(s *stack.Elimination[int]) Metric {
	hits, misses := s.Stats()
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	return Metric{Label: "hit-rate%", Value: rate, Unit: UnitPercent}
}
