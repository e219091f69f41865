package bench

import (
	"fmt"

	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/reclaim"
)

// The queue-segmented family (experiment S18) measures the FAA-claimed
// segmented queues against the CAS-retry designs they are built to beat:
// queue.MS (one CAS race per operation) and the bounded queue.MPMC ring
// (one CAS race per ticket). Every record carries conservation gauges —
// harness-counted enqueues/dequeues plus the structure's own segment
// counters — and every cell checks where the operations went, failing
// the run unless enqueues == dequeues + residual (the harness's law) and
// segs_allocated == segs_recycled + segs_live + segs_retired_pending
// (queue.SegStats's) both hold. The enq_slowpath and
// deq_abandoned gauges split FAA fast-path operations from tantrum/append
// traffic, which is the evidence that matters on hardware too small to
// show a parallel-speedup ratio (see Report.Summary).

// segWorkerCounts is one worker's successful-operation tally, padded so
// concurrent workers do not false-share tally lines.
type segWorkerCounts struct {
	enq, deq int64
	_        [112]byte
}

// segTally is a cell's harness-counted operation totals. prefill counts
// as enqueues (the harness performed them before the measured region) so
// its one law, enqueues == dequeues + residual, holds exactly.
type segTally struct{ enq, deq, residual int64 }

func (t segTally) Gauges(emit func(name string, v float64)) error {
	emit("enqueues", float64(t.enq))
	emit("dequeues", float64(t.deq))
	emit("residual", float64(t.residual))
	if t.enq != t.deq+t.residual {
		return fmt.Errorf("S18 harness: law enqueues == dequeues + residual broken (%d != %d + %d)",
			t.enq, t.deq, t.residual)
	}
	return nil
}

// segDriver adapts one queue implementation to the S18 harness: enq/deq
// report success (so failed bounded-ring tickets and empty dequeues do not
// corrupt the conservation gauges), length reads the residual, and stats
// (optional) snapshots the structure's own counters.
type segDriver struct {
	enq    func(int) bool
	deq    func() bool
	length func() int
	stats  func() gauger
}

func msSegDriver() segDriver {
	q := queue.NewMS[int]()
	return segDriver{
		enq:    func(v int) bool { q.Enqueue(v); return true },
		deq:    func() bool { _, ok := q.TryDequeue(); return ok },
		length: q.Len,
	}
}

func lcrqSegDriver(opts ...queue.Option) segDriver {
	q := queue.NewLCRQ[int](opts...)
	return segDriver{
		enq:    func(v int) bool { q.Enqueue(v); return true },
		deq:    func() bool { _, ok := q.TryDequeue(); return ok },
		length: q.Len,
		stats:  func() gauger { return q.Stats() },
	}
}

// lcrqEBRSegDriver runs the LCRQ with real reclamation and segment
// recycling — the deployment shape — and merges the domain's
// pending/reclaimed gauges with the segment counters. The advance interval
// is forced to 1 so even quick runs exercise the recycler.
func lcrqEBRSegDriver() segDriver {
	dom := reclaim.NewEBR()
	dom.SetAdvanceInterval(1)
	q := queue.NewLCRQ[int](queue.WithReclaim(dom), queue.WithRecycling())
	return segDriver{
		enq:    func(v int) bool { q.Enqueue(v); return true },
		deq:    func() bool { _, ok := q.TryDequeue(); return ok },
		length: q.Len,
		stats:  func() gauger { return gaugers{q.Stats(), dom} },
	}
}

func mpscSegDriver() segDriver {
	q := queue.NewMPSC[int]()
	return segDriver{
		enq:    func(v int) bool { q.Enqueue(v); return true },
		deq:    func() bool { _, ok := q.TryDequeue(); return ok },
		length: q.Len,
		stats:  func() gauger { return q.Stats() },
	}
}

func mpmcSegDriver() segDriver {
	q := queue.NewMPMC[int](1 << 16)
	return segDriver{
		enq:    q.TryEnqueue,
		deq:    func() bool { _, ok := q.TryDequeue(); return ok },
		length: q.Len,
		stats:  func() gauger { return q.Stats() },
	}
}

// segImpls is the segmented-queue family's table.
func segImpls() []impl[func() segDriver] {
	return []impl[func() segDriver]{
		{"MS", msSegDriver},
		{"LCRQ", func() segDriver { return lcrqSegDriver() }},
		{"LCRQ/EBR-recycle", lcrqEBRSegDriver},
		{"MPSC", mpscSegDriver},
		{"MPMC-64k", mpmcSegDriver},
	}
}

// runSegCell measures one (implementation, thread-count) cell: prefill,
// drive the per-worker role closures with latency sampling, then attach
// the conservation gauges.
func runSegCell(cfg Config, th, prefill int, mk func() segDriver,
	role func(w, th int, d segDriver, c *segWorkerCounts) func(int)) Result {
	d := mk()
	for i := 0; i < prefill; i++ {
		d.enq(i)
	}
	counts := make([]segWorkerCounts, th)
	ops := cfg.ops(200000)
	res := RunLatency(th, ops/th+1, func(w int) func(int) {
		return role(w, th, d, &counts[w])
	})
	tally := segTally{enq: int64(prefill), residual: int64(d.length())}
	for i := range counts {
		tally.enq += counts[i].enq
		tally.deq += counts[i].deq
	}
	res.gauge(tally)
	if d.stats != nil {
		res.gauge(d.stats())
	}
	return res
}

// segQueueScenarios is the S18 matrix. Three mixes: the symmetric hot
// path, an enqueue-burst shape that forces segment churn, and the pool
// injection-lane shape (many producers, one consumer) where the MPSC
// specialization is legal.
func segQueueScenarios() []Scenario {
	common := pick(segImpls(), "MS", "LCRQ", "LCRQ/EBR-recycle", "MPMC-64k")

	// hot-5050: prefilled symmetric mix — the common-case regime where the
	// LCRQ's one-FAA fast path is the whole story.
	hot := Scenario{Family: "queue-segmented", Name: "hot-5050", Algos: cells(common, func(mk func() segDriver, cfg Config, th int) Result {
		return runSegCell(cfg, th, 1024, mk, func(w, _ int, d segDriver, c *segWorkerCounts) func(int) {
			mix := NewMixGen(uint64(w)*7919+101, 50, 50)
			return func(i int) {
				if mix.Next() == 0 {
					if d.enq(i) {
						c.enq++
					}
				} else if d.deq() {
					c.deq++
				}
			}
		})
	})}

	// enq-burst-64-churn: alternating 64-op enqueue bursts and drain
	// phases, starting empty. Bursts fill whole segments and the drains
	// retire them, so this is the allocation/recycling regime: watch
	// segs_allocated vs segs_reused across the LCRQ variants.
	burst := Scenario{Family: "queue-segmented", Name: "enq-burst-64-churn", Algos: cells(common, func(mk func() segDriver, cfg Config, th int) Result {
		return runSegCell(cfg, th, 0, mk, func(_, _ int, d segDriver, c *segWorkerCounts) func(int) {
			return func(i int) {
				if (i/64)%2 == 0 {
					if d.enq(i) {
						c.enq++
					}
				} else if d.deq() {
					c.deq++
				}
			}
		})
	})}

	// pool-injection-1-consumer: workers 1..n produce, worker 0 is the
	// sole consumer — the shape of the executor's injection lane. The
	// single-consumer topology makes the MPSC variant legal here, so this
	// is the one cell that can price its skipped dequeue-side FAA/CAS
	// against the full LCRQ. At one thread the cell degenerates to
	// enqueue/dequeue pairs (still single-consumer).
	inject := Scenario{Family: "queue-segmented", Name: "pool-injection-1-consumer", Algos: cells(segImpls(), func(mk func() segDriver, cfg Config, th int) Result {
		return runSegCell(cfg, th, 0, mk, func(w, th int, d segDriver, c *segWorkerCounts) func(int) {
			if th == 1 {
				return func(i int) {
					if d.enq(i) {
						c.enq++
					}
					if d.deq() {
						c.deq++
					}
				}
			}
			if w == 0 {
				return func(int) {
					if d.deq() {
						c.deq++
					}
				}
			}
			return func(i int) {
				if d.enq(i) {
					c.enq++
				}
			}
		})
	})}

	return []Scenario{hot, burst, inject}
}

// segQueueS2Algos returns the gauge-carrying additions to the S2 queue
// family: the LCRQ alongside the linked designs it replaces, and the
// bounded MPMC ring whose CAS-miss/backoff gauges pin the S2 backoff fix
// observably. Both cells mirror the existing S2 mixes exactly (same
// prefill, op budget, and mix seeds) so the new rows are comparable with
// the incumbent ones.
func segQueueS2Algos() (mixed, split []ScenarioAlgo) {
	impls := pick(segImpls(), "LCRQ", "MPMC-64k")
	mixed = cells(impls, func(mk func() segDriver, cfg Config, th int) Result {
		d := mk()
		for i := 0; i < 1024; i++ {
			d.enq(i)
		}
		res := RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
			mix := NewMixGen(uint64(w)*7919+1, 70, 30)
			return func(i int) {
				if mix.Next() == 0 {
					d.enq(i)
				} else {
					d.deq()
				}
			}
		})
		res.gauge(d.stats())
		return res
	})
	split = cells(impls, func(mk func() segDriver, cfg Config, th int) Result {
		d := mk()
		for i := 0; i < 1024; i++ {
			d.enq(i)
		}
		res := RunLatency(th, cfg.ops(200000)/th+1, func(w int) func(int) {
			if w%2 == 0 {
				return func(i int) { d.enq(i) }
			}
			return func(int) { d.deq() }
		})
		res.gauge(d.stats())
		return res
	})
	return mixed, split
}

// ablationA5 sweeps the LCRQ's segment size on the symmetric 50/50 mix, with
// queue.MS and the 64k MPMC ring re-measured at every X as flat baselines
// (neither takes a segment-size parameter; re-measuring keeps their noise
// floor honest rather than drawing a single stale line). The sweep brackets
// the default: 64 retires segments fast enough to stress the reclaim path,
// 1024 amortises allocation hardest but strands more slots on residual
// queues.
func ablationA5(th int) Experiment {
	run := func(d segDriver, cfg Config) Result {
		for i := 0; i < 1024; i++ {
			d.enq(i)
		}
		return Run(th, cfg.ops(200000)/th+1, func(w int) func(int) {
			mix := NewMixGen(uint64(w)*7919+101, 50, 50)
			return func(i int) {
				if mix.Next() == 0 {
					d.enq(i)
				} else {
					d.deq()
				}
			}
		})
	}
	algos := cells(pick(segImpls(), "MS", "MPMC-64k"), func(mk func() segDriver, cfg Config, _ int) Result {
		return run(mk(), cfg)
	})
	algos = append(algos, ScenarioAlgo{Label: "LCRQ", Run: func(cfg Config, segSize int) Result {
		return run(lcrqSegDriver(queue.WithSegmentSize(segSize)), cfg)
	}})
	return Experiment{ID: "A5", Title: "Ablation: LCRQ segment size vs MS/MPMC baselines (X = segment size)", XLabel: "segsize", Scenarios: []Scenario{{
		Family: "queue-segmented",
		Name:   fmt.Sprintf("A5: LCRQ segment-size sweep at %d threads, 50/50 enq-deq (MS and MPMC-64k as baselines)", th),
		Xs:     []int{64, 256, 1024},
		Algos:  algos,
	}}}
}
