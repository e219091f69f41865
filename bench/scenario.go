package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/barrier"
	"github.com/cds-suite/cds/cmap"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/counter"
	"github.com/cds-suite/cds/deque"
	"github.com/cds-suite/cds/dual"
	"github.com/cds-suite/cds/fc"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/list"
	"github.com/cds-suite/cds/locks"
	"github.com/cds-suite/cds/pqueue"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/reclaim"
	"github.com/cds-suite/cds/skiplist"
	"github.com/cds-suite/cds/stack"
	"github.com/cds-suite/cds/stm"
)

// The scenario engine complements the throughput-vs-threads figures with a
// matrix of mixed workloads: read/write ratio sweeps, Zipfian vs. uniform
// key streams, and producer/consumer-asymmetric mixes. Every cell is
// measured with RunLatency, so scenario records carry the tail-latency
// percentiles the throughput figures cannot observe — the regime where
// lock-free and blocking designs differ most (Cederman et al.).

// mixBlock is the period over which MixGen proportions are exact.
const mixBlock = 100

// MixGen generates a deterministic stream of operation kinds with exact
// proportions: every consecutive block of 100 draws contains exactly
// pcts[k] operations of kind k, in an order shuffled by the seeded
// generator. Exactness (rather than i.i.d. sampling) keeps op mixes
// identical across algorithms and runs, so cells differ only in the
// structure under test.
type MixGen struct {
	proto []uint8
	block []uint8
	pos   int
	rng   *xrand.Rand
}

// NewMixGen returns a generator over kinds 0..len(pcts)-1. The
// percentages must be non-negative and sum to 100.
func NewMixGen(seed uint64, pcts ...int) *MixGen {
	sum := 0
	for _, p := range pcts {
		if p < 0 {
			panic(fmt.Sprintf("bench: negative mix percentage %d", p))
		}
		sum += p
	}
	if sum != mixBlock {
		panic(fmt.Sprintf("bench: mix percentages sum to %d, want %d", sum, mixBlock))
	}
	g := &MixGen{
		proto: make([]uint8, 0, mixBlock),
		block: make([]uint8, mixBlock),
		pos:   mixBlock, // force a refill on first Next
		rng:   xrand.New(seed),
	}
	for kind, p := range pcts {
		for i := 0; i < p; i++ {
			g.proto = append(g.proto, uint8(kind))
		}
	}
	return g
}

// Next returns the next operation kind.
func (g *MixGen) Next() int {
	if g.pos == mixBlock {
		copy(g.block, g.proto)
		// Fisher-Yates with the per-worker generator: a fresh exact-count
		// permutation per block.
		for i := mixBlock - 1; i > 0; i-- {
			j := g.rng.Intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
		g.pos = 0
	}
	k := g.block[g.pos]
	g.pos++
	return int(k)
}

// ScenarioAlgo is one implementation measured under a scenario: a cell
// of the suite's table.
type ScenarioAlgo struct {
	// Label names the implementation.
	Label string
	// Run measures one cell at sweep value x — the thread count unless
	// the scenario declares Xs: construct a fresh structure, prefill it,
	// and drive the scenario's mix.
	Run func(cfg Config, x int) Result
}

// Scenario is one workload mix applied to every algorithm of a family.
type Scenario struct {
	// Family is the structure family ("stack", "queue", ...).
	Family string
	// Name describes the mix (e.g. "enq-heavy-70/30-uniform").
	Name string
	// Xs, when set, is a fixed sweep of something other than the thread
	// count (stealers, θ×100, a design parameter) that replaces the
	// configured thread sweep; records carry the value in their threads
	// field.
	Xs []int
	// Algos are the implementations measured under this mix.
	Algos []ScenarioAlgo
}

// Sweep returns the values the scenario's cells run at under cfg.
func (s Scenario) Sweep(cfg Config) []int {
	if s.Xs != nil {
		return s.Xs
	}
	return cfg.threads()
}

// Run measures the scenario across its sweep, returning the records of
// every (algorithm, sweep value) cell: one each, or one per metric for
// cells that report Metrics. It stops at the first cell whose gauges
// break a declared law, with an error naming the cell and the law.
func (s Scenario) Run(cfg Config) ([]Record, error) {
	var recs []Record
	for _, a := range s.Algos {
		for _, x := range s.Sweep(cfg) {
			res := a.Run(cfg, x)
			if res.Err != nil {
				return nil, fmt.Errorf("cell %s %q %s x=%d: %w", s.Family, s.Name, a.Label, x, res.Err)
			}
			rec := res.Record(s.Family, a.Label, s.Name)
			rec.Threads = x
			if len(res.Metrics) == 0 {
				recs = append(recs, rec)
			}
			for _, m := range res.Metrics {
				rec.Algo, rec.Value, rec.Unit = m.Label, m.Value, m.Unit
				recs = append(recs, rec)
			}
		}
	}
	return recs, nil
}

// Scenarios returns the full mixed-workload matrix: at least two scenario
// cells per structure family.
func Scenarios() []Scenario {
	var all []Scenario
	for _, fam := range [][]Scenario{
		stackScenarios(), queueScenarios(), mapScenarios(), listScenarios(),
		skiplistScenarios(), pqueueScenarios(), dequeScenarios(),
		counterScenarios(), stmScenarios(), lockScenarios(), barrierScenarios(),
		reclaimScenarios(), contendScenarios(), reclaimStructScenarios(),
		dualScenarios(), poolScenarios(), cacheScenarios(), segQueueScenarios(),
	} {
		all = append(all, fam...)
	}
	return all
}

// --- implementation tables --------------------------------------------------

// impl is one row of a family's implementation table: a label and the
// constructor C every cell of the family builds it with. Each family
// declares its table once; its F, T, S and A cells pick rows from it.
type impl[C any] struct {
	label string
	mk    C
}

// pick returns the named rows of a table, in the order given.
func pick[C any](impls []impl[C], labels ...string) []impl[C] {
	out := make([]impl[C], 0, len(labels))
	for _, l := range labels {
		n := len(out)
		for _, im := range impls {
			if im.label == l {
				out = append(out, im)
			}
		}
		if len(out) == n {
			panic("bench: no implementation " + l)
		}
	}
	return out
}

// withPrefix returns the table with every label prefixed.
func withPrefix[C any](prefix string, impls []impl[C]) []impl[C] {
	out := make([]impl[C], len(impls))
	for i, im := range impls {
		out[i] = impl[C]{prefix + im.label, im.mk}
	}
	return out
}

// cells turns table rows into scenario cells that each run body with
// their row's constructor.
func cells[C any](impls []impl[C], body func(mk C, cfg Config, x int) Result) []ScenarioAlgo {
	algos := make([]ScenarioAlgo, len(impls))
	for i, im := range impls {
		algos[i] = ScenarioAlgo{Label: im.label, Run: func(cfg Config, x int) Result {
			return body(im.mk, cfg, x)
		}}
	}
	return algos
}

// backendLabel names a combining-backed row: the base label for flat
// combining, base/backend for the others.
func backendLabel(base string, be contend.Backend) string {
	if be == contend.BackendFlatCombining {
		return base
	}
	return base + "/" + be.String()
}

func lockImpls() []impl[func() func() sync.Locker] {
	// Each constructor returns the per-worker locker factory: the queue
	// locks hand every worker its own node-carrying Locker.
	shared := func(l sync.Locker) func() sync.Locker { return func() sync.Locker { return l } }
	return []impl[func() func() sync.Locker]{
		{"sync.Mutex", func() func() sync.Locker { return shared(&sync.Mutex{}) }},
		{"TAS", func() func() sync.Locker { return shared(&locks.TASLock{}) }},
		{"TTAS", func() func() sync.Locker { return shared(&locks.TTASLock{}) }},
		{"Backoff", func() func() sync.Locker { return shared(&locks.BackoffLock{}) }},
		{"Ticket", func() func() sync.Locker { return shared(&locks.TicketLock{}) }},
		{"MCS", func() func() sync.Locker { return (&locks.MCSLock{}).Locker }},
		{"CLH", func() func() sync.Locker { return (&locks.CLHLock{}).Locker }},
	}
}

func counterImpls() []impl[func() cds.Counter] {
	impls := []impl[func() cds.Counter]{
		{"Locked", func() cds.Counter { return &counter.Locked{} }},
		{"Atomic", func() cds.Counter { return &counter.Atomic{} }},
		{"Sharded", func() cds.Counter { return counter.NewSharded(0) }},
		{"Approx", func() cds.Counter { return counter.NewApprox(0, 64) }},
	}
	for _, be := range contend.Backends() {
		impls = append(impls, impl[func() cds.Counter]{backendLabel("Combining", be),
			func() cds.Counter { return counter.NewCombining(counter.WithBackend(be)) }})
	}
	return impls
}

func stackImpls() []impl[func() cds.Stack[int]] {
	return []impl[func() cds.Stack[int]]{
		{"Mutex", func() cds.Stack[int] { return stack.NewMutex[int]() }},
		{"Treiber", func() cds.Stack[int] { return stack.NewTreiber[int]() }},
		{"Elimination", func() cds.Stack[int] { return stack.NewElimination[int](0, 0) }},
		{"FC", func() cds.Stack[int] { return fc.NewStack[int]() }},
	}
}

// ringQueue adapts the bounded MPMC ring to cds.Queue; an Enqueue on a
// full ring is dropped.
type ringQueue struct{ *queue.MPMC[int] }

func (q ringQueue) Enqueue(v int) { q.TryEnqueue(v) }

func queueImpls() []impl[func() cds.Queue[int]] {
	impls := []impl[func() cds.Queue[int]]{
		{"Mutex", func() cds.Queue[int] { return queue.NewMutex[int]() }},
		{"TwoLock", func() cds.Queue[int] { return queue.NewTwoLock[int]() }},
		{"MS", func() cds.Queue[int] { return queue.NewMS[int]() }},
		{"ElimMS", func() cds.Queue[int] { return queue.NewElimination[int](0, 0) }},
	}
	for _, be := range contend.Backends() {
		impls = append(impls, impl[func() cds.Queue[int]]{backendLabel("FC", be),
			func() cds.Queue[int] { return fc.NewQueue[int](fc.WithBackend(be)) }})
	}
	return append(impls, impl[func() cds.Queue[int]]{"MPMC-64k",
		func() cds.Queue[int] { return ringQueue{queue.NewMPMC[int](1 << 16)} }})
}

// syncMapAdapter wraps sync.Map as a cds.Map for baseline comparison.
type syncMapAdapter struct{ m sync.Map }

func (a *syncMapAdapter) Load(k int) (int, bool) {
	v, ok := a.m.Load(k)
	if !ok {
		return 0, false
	}
	return v.(int), true
}
func (a *syncMapAdapter) Store(k, v int) { a.m.Store(k, v) }
func (a *syncMapAdapter) LoadOrStore(k, v int) (int, bool) {
	actual, loaded := a.m.LoadOrStore(k, v)
	return actual.(int), loaded
}
func (a *syncMapAdapter) Delete(k int) bool {
	_, loaded := a.m.LoadAndDelete(k)
	return loaded
}
func (a *syncMapAdapter) Len() int {
	n := 0
	a.m.Range(func(any, any) bool { n++; return true })
	return n
}

func mapImpls() []impl[func() cds.Map[int, int]] {
	return []impl[func() cds.Map[int, int]]{
		{"Locked", func() cds.Map[int, int] { return cmap.NewLocked[int, int]() }},
		{"Striped", func() cds.Map[int, int] { return cmap.NewStriped[int, int](64) }},
		{"SplitOrdered", func() cds.Map[int, int] { return cmap.NewSplitOrdered[int, int]() }},
		{"sync.Map", func() cds.Map[int, int] { return &syncMapAdapter{} }},
	}
}

func listImpls() []impl[func() cds.Set[int]] {
	return []impl[func() cds.Set[int]]{
		{"Coarse", func() cds.Set[int] { return list.NewCoarse[int]() }},
		{"Fine", func() cds.Set[int] { return list.NewFine[int]() }},
		{"Optimistic", func() cds.Set[int] { return list.NewOptimistic[int]() }},
		{"Lazy", func() cds.Set[int] { return list.NewLazy[int]() }},
		{"Harris", func() cds.Set[int] { return list.NewHarris[int]() }},
	}
}

func skiplistImpls() []impl[func() cds.Set[int]] {
	return []impl[func() cds.Set[int]]{
		{"Lazy", func() cds.Set[int] { return skiplist.NewLazy[int]() }},
		{"LockFree", func() cds.Set[int] { return skiplist.NewLockFree[int]() }},
	}
}

func pqueueImpls() []impl[func() cds.PriorityQueue[int]] {
	less := func(a, b int) bool { return a < b }
	impls := []impl[func() cds.PriorityQueue[int]]{
		{"LockedHeap", func() cds.PriorityQueue[int] { return pqueue.NewHeap[int](less) }},
		{"SkipListPQ", func() cds.PriorityQueue[int] { return pqueue.NewSkipList[int]() }},
	}
	for _, be := range contend.Backends() {
		impls = append(impls, impl[func() cds.PriorityQueue[int]]{backendLabel("FCHeap", be),
			func() cds.PriorityQueue[int] { return pqueue.NewFC[int](less, pqueue.WithBackend(be)) }})
	}
	return impls
}

func dequeImpls() []impl[func() cds.Deque[int]] {
	impls := []impl[func() cds.Deque[int]]{
		{"ChaseLev", func() cds.Deque[int] { return deque.NewChaseLev[int](1024) }},
		{"MutexDeque", func() cds.Deque[int] { return deque.NewMutex[int]() }},
	}
	for _, be := range contend.Backends() {
		impls = append(impls, impl[func() cds.Deque[int]]{backendLabel("FCDeque", be),
			func() cds.Deque[int] { return deque.NewFC[int](deque.WithBackend(be)) }})
	}
	return impls
}

type waiter interface{ Wait() }

// barrierImpls constructors build an n-party barrier and return its n
// per-worker handles.
func barrierImpls() []impl[func(n int) []waiter] {
	handles := func(n int, h func() waiter) []waiter {
		hs := make([]waiter, n)
		for i := range hs {
			hs[i] = h()
		}
		return hs
	}
	return []impl[func(n int) []waiter]{
		{"Sense", func(n int) []waiter {
			b := barrier.NewSense(n)
			return handles(n, func() waiter { return b.Handle() })
		}},
		{"Tree", func(n int) []waiter {
			b := barrier.NewTree(n)
			return handles(n, func() waiter { return b.Handle() })
		}},
		{"Dissemination", func(n int) []waiter {
			b := barrier.NewDissemination(n)
			return handles(n, func() waiter { return b.Handle() })
		}},
	}
}

// bankImpls constructors set up accounts balances and return the
// transfer that moves one unit from one account to another.
func bankImpls(accounts int) []impl[func() func(from, to int)] {
	return []impl[func() func(from, to int)]{
		{"STM", func() func(from, to int) {
			vars := make([]*stm.TVar[int], accounts)
			for i := range vars {
				vars[i] = stm.NewTVar(1000)
			}
			return func(from, to int) {
				stm.Atomically(func(tx *stm.Txn) {
					f := vars[from].Read(tx)
					vars[from].Write(tx, f-1)
					vars[to].Write(tx, vars[to].Read(tx)+1)
				})
			}
		}},
		{"GlobalLock", func() func(from, to int) {
			balances := make([]int, accounts)
			var mu sync.Mutex
			return func(from, to int) {
				mu.Lock()
				balances[from]--
				balances[to]++
				mu.Unlock()
			}
		}},
	}
}

// --- shared workload pieces --------------------------------------------------

// runner is Run or RunLatency: the F/T/A cells measure throughput alone,
// the S cells sample per-operation latency.
type runner func(workers, opsPerWorker int, mkOp func(w int) func(i int)) Result

// prefill adds 0..n-1.
func prefill(n int, add func(int)) {
	for i := 0; i < n; i++ {
		add(i)
	}
}

// prefillSet adds keyRange/2 seeded random keys.
func prefillSet(s cds.Set[int], keyRange int, seed uint64) {
	pre := xrand.New(seed)
	for i := 0; i < keyRange/2; i++ {
		s.Add(pre.Intn(keyRange))
	}
}

// prefillMap stores keyRange/2 seeded random keys.
func prefillMap(m cds.Map[int, int], keyRange int) {
	pre := xrand.New(7)
	for i := 0; i < keyRange/2; i++ {
		m.Store(pre.Intn(keyRange), i)
	}
}

func prefillPQ(pq cds.PriorityQueue[int]) {
	pre := xrand.New(11)
	for i := 0; i < 4096; i++ {
		pq.Insert(pre.Intn(1 << 20))
	}
}

// stackMixOp is the coin-flip 50/50 push-pop mix.
func stackMixOp(s cds.Stack[int]) func(w int) func(int) {
	return func(w int) func(int) {
		rng := xrand.New(uint64(w) + 1)
		return func(int) {
			if rng.Uint64()&1 == 0 {
				s.Push(7)
			} else {
				s.TryPop()
			}
		}
	}
}

// opsQueue is the coin-flip 50/50 enqueue-dequeue mix.
func opsQueue(q cds.Queue[int]) func(w int) func(int) {
	return func(w int) func(int) {
		rng := xrand.New(uint64(w) + 1)
		return func(int) {
			if rng.Uint64()&1 == 0 {
				q.Enqueue(7)
			} else {
				q.TryDequeue()
			}
		}
	}
}

// setMixOp builds a readPct% contains / rest split add-remove operation mix.
func setMixOp(set cds.Set[int], keyRange int, readPct uint64) func(w int) func(int) {
	return func(w int) func(int) {
		rng := xrand.New(uint64(w)*2654435761 + 1)
		return func(int) {
			k := rng.Intn(keyRange)
			r := rng.Uint64n(100)
			switch {
			case r < readPct:
				set.Contains(k)
			case r < readPct+(100-readPct)/2:
				set.Add(k)
			default:
				set.Remove(k)
			}
		}
	}
}

func mapMixOp(m cds.Map[int, int], keyRange int, theta float64, readPct uint64) func(w int) func(int) {
	return func(w int) func(int) {
		keys, err := NewKeyStream(uint64(keyRange), theta, uint64(w)+1)
		if err != nil {
			panic(err) // static parameters; cannot fail at runtime
		}
		rng := xrand.New(uint64(w)*912367 + 5)
		return func(int) {
			k := int(keys.Next())
			r := rng.Uint64n(100)
			switch {
			case r < readPct:
				m.Load(k)
			case r < readPct+(100-readPct)/2:
				m.Store(k, 42)
			default:
				m.Delete(k)
			}
		}
	}
}

// bankCell drives random transfers between distinct accounts.
func bankCell(run runner, accounts, defOps int) func(mk func() func(from, to int), cfg Config, th int) Result {
	return func(mk func() func(from, to int), cfg Config, th int) Result {
		transfer := mk()
		return run(th, cfg.ops(defOps)/th+1, func(w int) func(int) {
			rng := xrand.New(uint64(w) + 23)
			return func(int) {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					to = (to + 1) % accounts
				}
				transfer(from, to)
			}
		})
	}
}

// --- family matrices --------------------------------------------------------

func stackScenarios() []Scenario {
	scenario := func(name string, pushPct int) Scenario {
		return Scenario{Family: "stack", Name: name, Algos: cells(stackImpls(), func(mk func() cds.Stack[int], cfg Config, th int) Result {
			st := mk()
			prefill(1024, st.Push)
			return RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
				mix := NewMixGen(uint64(w)*7919+1, pushPct, 100-pushPct)
				return func(i int) {
					if mix.Next() == 0 {
						st.Push(i)
					} else {
						st.TryPop()
					}
				}
			})
		})}
	}
	return []Scenario{
		scenario("push-heavy-70/30", 70),
		scenario("pop-heavy-30/70", 30),
	}
}

func queueScenarios() []Scenario {
	impls := pick(queueImpls(), "Mutex", "TwoLock", "MS", "ElimMS", "FC")
	mixed := Scenario{Family: "queue", Name: "enq-heavy-70/30", Algos: cells(impls, func(mk func() cds.Queue[int], cfg Config, th int) Result {
		q := mk()
		prefill(1024, q.Enqueue)
		return RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
			mix := NewMixGen(uint64(w)*7919+1, 70, 30)
			return func(i int) {
				if mix.Next() == 0 {
					q.Enqueue(i)
				} else {
					q.TryDequeue()
				}
			}
		})
	})}
	split := Scenario{Family: "queue", Name: "producer-consumer-split", Algos: cells(impls, func(mk func() cds.Queue[int], cfg Config, th int) Result {
		q := mk()
		prefill(1024, q.Enqueue)
		// Even workers produce, odd workers consume — the asymmetric
		// regime where head and tail contention decouple (and where the
		// two-lock queue earns its second lock).
		return RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
			if w%2 == 0 {
				return func(i int) { q.Enqueue(i) }
			}
			return func(int) { q.TryDequeue() }
		})
	})}
	// The segmented/bounded designs ride along with structure gauges
	// attached (segment-lifecycle counters for the LCRQ, CAS-miss/backoff
	// counters for the MPMC ring); see bench/segqueue.go.
	m2, s2 := segQueueS2Algos()
	mixed.Algos = append(mixed.Algos, m2...)
	split.Algos = append(split.Algos, s2...)
	return []Scenario{mixed, split}
}

func mapScenarios() []Scenario {
	const keyRange = 1 << 16
	scenario := func(name string, readPct int, theta float64) Scenario {
		return Scenario{Family: "cmap", Name: name, Algos: cells(mapImpls(), func(mk func() cds.Map[int, int], cfg Config, th int) Result {
			m := mk()
			prefillMap(m, keyRange)
			write := (100 - readPct) / 2
			return RunLatency(th, cfg.ops(100000)/th+1, func(w int) func(int) {
				keys, err := NewKeyStream(keyRange, theta, uint64(w)+1)
				if err != nil {
					panic(err) // static parameters; cannot fail at runtime
				}
				mix := NewMixGen(uint64(w)*912367+5, readPct, write, 100-readPct-write)
				return func(int) {
					k := int(keys.Next())
					switch mix.Next() {
					case 0:
						m.Load(k)
					case 1:
						m.Store(k, 42)
					default:
						m.Delete(k)
					}
				}
			})
		})}
	}
	return []Scenario{
		scenario("read90/10-uniform", 90, 0),
		scenario("read50/50-zipf0.99", 50, 0.99),
	}
}

func setScenario(family, name string, readPct, keyRange int, theta float64, impls []impl[func() cds.Set[int]]) Scenario {
	return Scenario{Family: family, Name: name, Algos: cells(impls, func(mk func() cds.Set[int], cfg Config, th int) Result {
		set := mk()
		prefillSet(set, keyRange, 99)
		write := (100 - readPct) / 2
		return RunLatency(th, cfg.ops(60000)/th+1, func(w int) func(int) {
			keys, err := NewKeyStream(uint64(keyRange), theta, uint64(w)*2654435761+1)
			if err != nil {
				panic(err) // static parameters; cannot fail at runtime
			}
			mix := NewMixGen(uint64(w)*31+7, readPct, write, 100-readPct-write)
			return func(int) {
				k := int(keys.Next())
				switch mix.Next() {
				case 0:
					set.Contains(k)
				case 1:
					set.Add(k)
				default:
					set.Remove(k)
				}
			}
		})
	})}
}

func listScenarios() []Scenario {
	impls := pick(listImpls(), "Coarse", "Lazy", "Harris")
	return []Scenario{
		setScenario("list", "read90/10-uniform-1k", 90, 1024, 0, impls),
		setScenario("list", "read50/50-uniform-1k", 50, 1024, 0, impls),
	}
}

func skiplistScenarios() []Scenario {
	return []Scenario{
		setScenario("skiplist", "read90/10-zipf0.99", 90, 1<<16, 0.99, skiplistImpls()),
		setScenario("skiplist", "read50/50-uniform", 50, 1<<16, 0, skiplistImpls()),
	}
}

func pqueueScenarios() []Scenario {
	scenario := func(name string, insertPct int) Scenario {
		return Scenario{Family: "pqueue", Name: name, Algos: cells(pick(pqueueImpls(), "LockedHeap", "SkipListPQ", "FCHeap"), func(mk func() cds.PriorityQueue[int], cfg Config, th int) Result {
			pq := mk()
			prefillPQ(pq)
			return RunLatency(th, cfg.ops(60000)/th+1, func(w int) func(int) {
				mix := NewMixGen(uint64(w)*13+17, insertPct, 100-insertPct)
				rng := xrand.New(uint64(w) + 17)
				return func(int) {
					if mix.Next() == 0 {
						pq.Insert(rng.Intn(1 << 20))
					} else {
						pq.TryDeleteMin()
					}
				}
			})
		})}
	}
	return []Scenario{
		scenario("insert-heavy-90/10", 90),
		scenario("balanced-50/50", 50),
	}
}

func dequeScenarios() []Scenario {
	// Worker 0 is the deque's owner (PushBottom/TryPopBottom are
	// owner-only on Chase-Lev); every other worker is a thief driving
	// TryPopTop. The two mixes vary how much the owner feeds the thieves.
	scenario := func(name string, pushPct int) Scenario {
		return Scenario{Family: "deque", Name: name, Algos: cells(pick(dequeImpls(), "ChaseLev", "MutexDeque", "FCDeque"), func(mk func() cds.Deque[int], cfg Config, th int) Result {
			d := mk()
			return RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
				if w > 0 {
					return func(int) { d.TryPopTop() }
				}
				mix := NewMixGen(uint64(w)*43+3, pushPct, 100-pushPct)
				return func(i int) {
					if mix.Next() == 0 {
						d.PushBottom(i)
					} else {
						d.TryPopBottom()
					}
				}
			})
		})}
	}
	return []Scenario{
		scenario("owner-push-heavy-75/25", 75),
		scenario("owner-balanced-50/50", 50),
	}
}

func counterScenarios() []Scenario {
	scenario := func(name string, incPct int) Scenario {
		return Scenario{Family: "counter", Name: name, Algos: cells(pick(counterImpls(), "Atomic", "Sharded", "Approx"), func(mk func() cds.Counter, cfg Config, th int) Result {
			c := mk()
			return RunLatency(th, cfg.ops(300000)/th+1, func(w int) func(int) {
				if incPct == 100 {
					return func(int) { c.Inc() }
				}
				mix := NewMixGen(uint64(w)*53+9, incPct, 100-incPct)
				return func(int) {
					if mix.Next() == 0 {
						c.Inc()
					} else {
						c.Load()
					}
				}
			})
		})}
	}
	return []Scenario{
		scenario("inc-only", 100),
		scenario("inc90/load10", 90),
	}
}

func stmScenarios() []Scenario {
	scenario := func(name string, accounts int) Scenario {
		return Scenario{Family: "stm", Name: name, Algos: cells(bankImpls(accounts), bankCell(RunLatency, accounts, 60000))}
	}
	return []Scenario{
		scenario("transfer-64-accounts", 64),
		scenario("transfer-8k-accounts", 1<<13),
	}
}

func barrierScenarios() []Scenario {
	// phaseWork sets how much local computation separates episodes: 0 is
	// the pure synchronisation cost, larger values stagger the arrivals —
	// the regime where tree/dissemination structure pays off because early
	// arrivals overlap waiting with the stragglers' work.
	scenario := func(name string, phaseWork int) Scenario {
		return Scenario{Family: "barrier", Name: name, Algos: cells(barrierImpls(), func(mk func(n int) []waiter, cfg Config, th int) Result {
			hs := mk(th)
			return RunLatency(th, cfg.ops(20000), func(w int) func(int) {
				h := hs[w]
				sink := uint64(w)
				return func(int) {
					for k := 0; k < phaseWork*(w+1)/th; k++ {
						xrand.SplitMix64(&sink)
					}
					h.Wait()
				}
			})
		})}
	}
	return []Scenario{
		scenario("back-to-back-episodes", 0),
		scenario("staggered-arrival", 64),
	}
}

func reclaimScenarios() []Scenario {
	type node struct{ v int }
	// cell reads the shared pointer inside a guard section (publishing it
	// under HP) or swaps it and retires the old one.
	cell := func(dom func() reclaim.Domain, readPct int) func(Config, int) Result {
		return func(cfg Config, th int) Result {
			d := dom()
			var shared atomic.Pointer[node]
			shared.Store(&node{})
			ops := cfg.ops(100000)
			return RunLatency(th, ops/th+1, func(w int) func(int) {
				g := d.NewGuard(1)
				mix := NewMixGen(uint64(w)*61+31, readPct, 100-readPct)
				return func(int) {
					if mix.Next() == 0 {
						g.Enter()
						_ = reclaim.Load(g, 0, &shared)
						g.Exit()
					} else {
						old := shared.Swap(&node{})
						g.Retire(old, func() { _ = old })
					}
				}
			})
		}
	}
	mkScenario := func(name string, readPct int) Scenario {
		return Scenario{Family: "reclaim", Name: name, Algos: []ScenarioAlgo{
			{Label: "EBR", Run: cell(func() reclaim.Domain { return reclaim.NewEBR() }, readPct)},
			{Label: "HazardPtr", Run: cell(func() reclaim.Domain { return reclaim.NewHP() }, readPct)},
		}}
	}
	return []Scenario{
		mkScenario("read-mostly-90/10", 90),
		mkScenario("swap-heavy-50/50", 50),
	}
}

// contendScenarios showcases the contention-management layer: the
// combining/elimination-backed variants under the high-contention symmetric
// mixes they were designed for. Unlike the family matrices above, these
// cells start empty (no prefill): the symmetric 50/50 mix then keeps the
// structures hovering near empty, which maximises head/tail (or top)
// collisions — the regime where elimination pairs operations off and
// combining batches them, and where the plain CAS loops degrade. Every
// combining-backed row is swept over the three delegation backends and
// carries the backend gauges (batches, avg/max batch, handoffs).
func contendScenarios() []Scenario {
	queueSc := Scenario{Family: "contend", Name: "queue-symmetric-50/50-empty",
		Algos: cells(pick(queueImpls(), "MS", "ElimMS", "FC", "FC/CC-Synch", "FC/DSM-Synch"), func(mk func() cds.Queue[int], cfg Config, th int) Result {
			q := mk()
			return withStats[contend.DelegatorStats](RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
				mix := NewMixGen(uint64(w)*104729+13, 50, 50)
				return func(i int) {
					if mix.Next() == 0 {
						q.Enqueue(i)
					} else {
						q.TryDequeue()
					}
				}
			}), q)
		})}

	pqSc := Scenario{Family: "contend", Name: "pqueue-symmetric-50/50",
		Algos: cells(pqueueImpls(), func(mk func() cds.PriorityQueue[int], cfg Config, th int) Result {
			pq := mk()
			return withStats[contend.DelegatorStats](RunLatency(th, cfg.ops(60000)/th+1, func(w int) func(int) {
				mix := NewMixGen(uint64(w)*104729+29, 50, 50)
				rng := xrand.New(uint64(w) + 43)
				return func(int) {
					if mix.Next() == 0 {
						pq.Insert(rng.Intn(1 << 20))
					} else {
						pq.TryDeleteMin()
					}
				}
			}), pq)
		})}

	// The deque cell drives both ends from every worker — the symmetric
	// workload Chase-Lev's owner restriction rules out, so the combining
	// deque is compared against the locked baseline.
	dqSc := Scenario{Family: "contend", Name: "deque-symmetric-both-ends",
		Algos: cells(pick(dequeImpls(), "MutexDeque", "FCDeque", "FCDeque/CC-Synch", "FCDeque/DSM-Synch"), func(mk func() cds.Deque[int], cfg Config, th int) Result {
			d := mk()
			return withStats[contend.DelegatorStats](RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
				mix := NewMixGen(uint64(w)*104729+31, 40, 30, 30)
				return func(i int) {
					switch mix.Next() {
					case 0:
						d.PushBottom(i)
					case 1:
						d.TryPopBottom()
					default:
						d.TryPopTop()
					}
				}
			}), d)
		})}

	// The counter cell is the smallest combining payload — pure delegation
	// overhead, no structure work to hide it — so the three backends (and
	// the atomic baseline) separate most cleanly here.
	ctrSc := Scenario{Family: "contend", Name: "counter-inc-heavy-90/10",
		Algos: cells(pick(counterImpls(), "Atomic", "Combining", "Combining/CC-Synch", "Combining/DSM-Synch"), func(mk func() cds.Counter, cfg Config, th int) Result {
			c := mk()
			return withStats[contend.DelegatorStats](RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
				mix := NewMixGen(uint64(w)*104729+37, 90, 10)
				return func(int) {
					if mix.Next() == 0 {
						c.Inc()
					} else {
						c.Load()
					}
				}
			}), c)
		})}

	return []Scenario{queueSc, pqSc, dqSc, ctrSc}
}

// reclaimVariant is one scheme of the sweep F12 and the reclaim-structs
// scenarios measure on every lock-free structure, passed through each
// structure's WithReclaim option.
type reclaimVariant struct {
	dom     func() reclaim.Domain
	recycle bool
}

// reclaimVariants is the scheme sweep: the zero-cost GC default, real EBR,
// real HP, and EBR with node recycling ("Recycled").
func reclaimVariants() []impl[reclaimVariant] {
	return []impl[reclaimVariant]{
		{"GC", reclaimVariant{dom: reclaim.NewGC}},
		{"EBR", reclaimVariant{dom: func() reclaim.Domain { return reclaim.NewEBR() }}},
		{"HP", reclaimVariant{dom: func() reclaim.Domain { return reclaim.NewHP() }}},
		{"Recycled", reclaimVariant{dom: func() reclaim.Domain { return reclaim.NewEBR() }, recycle: true}},
	}
}

// reclaimListChurn measures one Harris cell on the shared 40/40/20
// add/remove/contains churn mix; both F12 and the S14 list scenario run
// exactly this cell (different key ranges and op budgets), so a change to
// the workload cannot diverge the two reports.
func reclaimListChurn(v reclaimVariant, th, ops, keyRange int) Result {
	dom := v.dom()
	opts := []list.Option{list.WithReclaim(dom)}
	if v.recycle {
		opts = append(opts, list.WithRecycling())
	}
	s := list.NewHarris[int](opts...)
	prefillSet(s, keyRange, 99)
	res := RunLatency(th, ops/th+1, func(w int) func(int) {
		mix := NewMixGen(uint64(w)*31+7, 40, 40, 20)
		rng := xrand.New(uint64(w)*2654435761 + 1)
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

// reclaimMapChurn is the split-ordered counterpart of reclaimListChurn
// (40/40/20 store/delete/load), likewise shared by F12 and S14.
func reclaimMapChurn(v reclaimVariant, th, ops, keyRange int) Result {
	dom := v.dom()
	opts := []cmap.Option{cmap.WithReclaim(dom)}
	if v.recycle {
		opts = append(opts, cmap.WithRecycling())
	}
	m := cmap.NewSplitOrdered[int, int](opts...)
	prefillMap(m, keyRange)
	res := RunLatency(th, ops/th+1, func(w int) func(int) {
		mix := NewMixGen(uint64(w)*912367+5, 40, 40, 20)
		rng := xrand.New(uint64(w)*104729 + 13)
		return func(int) {
			k := rng.Intn(keyRange)
			switch mix.Next() {
			case 0:
				m.Store(k, 42)
			case 1:
				m.Delete(k)
			default:
				m.Load(k)
			}
		}
	})
	res.gauge(dom)
	return res
}

// lockFreeSkiplist builds the lock-free skip list under a variant (the
// skip list has no recycling mode), prefilled with keyRange/2 keys.
func lockFreeSkiplist(v reclaimVariant, keyRange int) (*skiplist.LockFree[int], reclaim.Domain) {
	dom := v.dom()
	s := skiplist.NewLockFree[int](skiplist.WithReclaim(dom))
	prefillSet(s, keyRange, 3)
	return s, dom
}

// reclaimStructScenarios (experiment S14) measures the reclamation layer
// where it actually lives: wired into the lock-free structures via
// WithReclaim. Two delete-heavy churn mixes exercise the retire/unlink
// hot path on the list and the map, and a stalled-reader cell pins one
// guard across long batches on the skip list — the adversarial regime
// where EBR's pending garbage grows without bound while HP's stays capped
// at the slot count. Every record carries the end-of-run pending_garbage
// and reclaimed gauges.
func reclaimStructScenarios() []Scenario {
	const keyRange = 256
	listSc := Scenario{Family: "reclaim-structs", Name: "list-delete-heavy-40/40/20",
		Algos: cells(withPrefix("Harris/", reclaimVariants()), func(v reclaimVariant, cfg Config, th int) Result {
			return reclaimListChurn(v, th, cfg.ops(60000), keyRange)
		})}
	mapSc := Scenario{Family: "reclaim-structs", Name: "map-delete-heavy-40/40/20",
		Algos: cells(withPrefix("SplitOrdered/", reclaimVariants()), func(v reclaimVariant, cfg Config, th int) Result {
			return reclaimMapChurn(v, th, cfg.ops(60000), keyRange)
		})}

	// Stalled-reader pressure: worker 0 holds a guard section open across
	// stallBatch operations while the rest churn add/remove. EBR cannot
	// advance the epoch past a pinned reader, so its pending gauge grows
	// with the stall length; HP's stays bounded by the slot count.
	const stallBatch = 2048
	stallSc := Scenario{Family: "reclaim-structs", Name: "skiplist-stalled-reader-churn",
		Algos: cells(withPrefix("LockFree/", pick(reclaimVariants(), "GC", "EBR", "HP")), func(v reclaimVariant, cfg Config, th int) Result {
			s, dom := lockFreeSkiplist(v, keyRange)
			stall := dom.NewGuard(1)
			res := RunLatency(th, cfg.ops(60000)/th+1, func(w int) func(int) {
				if w == 0 {
					// The stalled reader: reads inside a section it only
					// leaves every stallBatch operations.
					rng := xrand.New(uint64(w) + 51)
					count := 0
					stall.Enter()
					//cdsvet:ignore guardexit stalled-reader scenario: the guard deliberately stays entered across the factory return to pin reclamation
					return func(int) {
						s.Contains(rng.Intn(keyRange))
						count++
						if count%stallBatch == 0 {
							stall.Exit()
							stall.Enter()
						}
					} //cdsvet:ignore guardexit stalled-reader scenario: the worker exits and re-enters only every stallBatch ops, holding the guard between calls on purpose
				}
				mix := NewMixGen(uint64(w)*61+31, 50, 50)
				rng := xrand.New(uint64(w)*7919 + 5)
				return func(int) {
					k := rng.Intn(keyRange)
					if mix.Next() == 0 {
						s.Add(k)
					} else {
						s.Remove(k)
					}
				}
			})
			// Snapshot the gauges while the stall is still pinned: the
			// whole point is the garbage a stalled reader strands.
			res.gauge(dom)
			stall.Exit()
			stall.Release()
			return res
		})}

	return []Scenario{listSc, mapSc, stallSc}
}

// chanBQ adapts a Go channel to the blocking-queue shape so the dual
// scenarios carry the obvious baseline: the runtime's own blocking queue.
type chanBQ struct{ ch chan int }

func (q chanBQ) Put(ctx context.Context, v int) error {
	select {
	case q.ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (q chanBQ) Take(ctx context.Context) (int, error) {
	select {
	case v := <-q.ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (q chanBQ) Len() int { return len(q.ch) }

// dualOpTimeout bounds every blocking operation in the dual cells. It is
// the cancellation budget of the scenario family: an op that finds no
// partner (or no room) within it returns ctx.Err, counts in the cancelled
// gauge, and keeps every cell terminating at any thread count — including
// the degenerate single-thread cells where a rendezvous can never pair.
// Blocking cells therefore measure wait behaviour, not pure CPU cost:
// latency percentiles include parked time and timer overhead, which is
// exactly what distinguishes the designs (see README, "Reading the
// benchmarks").
const dualOpTimeout = 100 * time.Microsecond

// dualScenarios (experiment S15) measures the blocking family under the
// three regimes the dual design targets: producer-heavy backpressure,
// bursty production with consumer droughts (parks), and a symmetric
// rendezvous mix with tight cancellation deadlines.
func dualScenarios() []Scenario {
	const capacity = 1024
	impls := []impl[func() cds.BlockingQueue[int]]{
		{"DualMS", func() cds.BlockingQueue[int] { return dual.NewMSQueue[int]() }},
		{"Sync", func() cds.BlockingQueue[int] { return dual.NewSync[int](0, 0) }},
		{"Bounded", func() cds.BlockingQueue[int] { return dual.NewBounded[int](capacity) }},
		// Buffered channel: the baseline every Go blocking queue is
		// implicitly compared against. No gauges — the runtime does not
		// expose its park counts.
		{"Channel", func() cds.BlockingQueue[int] { return chanBQ{ch: make(chan int, capacity)} }},
	}
	scenario := func(name string, roles func(w int, q cds.BlockingQueue[int]) func(i int)) Scenario {
		return Scenario{Family: "dual", Name: name, Algos: cells(impls, func(mk func() cds.BlockingQueue[int], cfg Config, th int) Result {
			q := mk()
			return withStats[dual.Stats](RunLatency(th, cfg.ops(60000)/th+1, func(w int) func(int) {
				return roles(w, q)
			}), q)
		})}
	}

	put := func(q cds.BlockingQueue[int], v int) {
		ctx, cancel := context.WithTimeout(context.Background(), dualOpTimeout)
		_ = q.Put(ctx, v)
		cancel()
	}
	take := func(q cds.BlockingQueue[int]) {
		ctx, cancel := context.WithTimeout(context.Background(), dualOpTimeout)
		_, _ = q.Take(ctx)
		cancel()
	}

	return []Scenario{
		// Two producers per consumer: the unbounded queue absorbs the
		// surplus, the bounded queue and channel exert backpressure
		// (producer parks), the synchronous queue throttles producers to
		// the consumer rate by construction.
		scenario("producer-heavy-2:1", func(w int, q cds.BlockingQueue[int]) func(int) {
			// Worker 1, 4, 7, ... consume, the rest produce: at two
			// threads the cell is a clean 1:1 pair, from four on it is
			// producer-heavy.
			if w%3 == 1 {
				return func(int) { take(q) }
			}
			return func(i int) { put(q, i) }
		}),
		// One bursty producer, the rest consumers: bursts of 64 puts
		// alternate with equal droughts, so consumers oscillate between
		// draining data and parking on reservations (the parks and
		// cancelled gauges are the signal here).
		scenario("burst-64-1p-consumers", func(w int, q cds.BlockingQueue[int]) func(int) {
			if w == 0 {
				return func(i int) {
					if (i/64)%2 == 0 {
						put(q, i)
					} else {
						runtime.Gosched() // drought: the producer goes quiet
					}
				}
			}
			return func(int) { take(q) }
		}),
		// Symmetric 50/50 put/take from every worker under the tight
		// deadline: the rendezvous regime (and, at one thread, the
		// degenerate all-cancellations cell that sizes the cancellation
		// path itself).
		scenario("rendezvous-50/50-cancel", func(w int, q cds.BlockingQueue[int]) func(int) {
			mix := NewMixGen(uint64(w)*271+9, 50, 50)
			return func(i int) {
				if mix.Next() == 0 {
					put(q, i)
				} else {
					take(q)
				}
			}
		}),
	}
}

func lockScenarios() []Scenario {
	// csWork controls the critical-section length: 0 is the tiny
	// increment-only section of F1, larger values emulate real protected
	// work (~4ns per SplitMix64 round).
	scenario := func(name string, csWork int) Scenario {
		return Scenario{Family: "locks", Name: name, Algos: cells(pick(lockImpls(), "sync.Mutex", "Backoff", "Ticket"), func(mk func() func() sync.Locker, cfg Config, th int) Result {
			locker := mk()
			shared := uint64(0)
			return RunLatency(th, cfg.ops(100000)/th+1, func(int) func(int) {
				l := locker()
				return func(int) {
					l.Lock()
					shared++
					for k := 0; k < csWork; k++ {
						xrand.SplitMix64(&shared)
					}
					l.Unlock()
				}
			})
		})}
	}
	return []Scenario{
		scenario("tiny-critical-section", 0),
		scenario("long-critical-section-~250ns", 64),
	}
}
