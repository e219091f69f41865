// Command perfbench is the repository's benchmark: seeded workloads that
// drive the library through its public APIs the way the examples deploy
// it, check the outputs, and print end-to-end metrics or, traced,
// per-layer ones. BENCHMARK.json at the repository root lists the
// workloads it is judged on, with the reason for each, and the metrics
// with their bounds; perfbench/run.py builds and runs it.
//
// Workloads, each with GOMAXPROCS and the client or worker count equal to
// the number of CPUs:
//
//   - cache-read-zipf: cache.New with SIEVE, TinyLFU admission and a
//     weight budget; Zipf 0.99 keys over 1Mi, 95% Get with Set on a miss,
//     5% Set. Closed loop.
//   - cache-churn-scan: the same cache; Zipf 0.6 keys over 4Mi, 50% Get,
//     50% Set. Closed loop.
//   - pool-forkjoin-closed: pool.NewWorkStealing; each client submits a
//     root job that forks a depth-5 binary tree of 63 tasks through
//     Worker.Spawn, and waits for its last task. Closed loop.
//   - queue-ms-hp: queue.NewMS under hazard pointers with node recycling,
//     prefilled with 1Ki values; each client loops Enqueue then
//     TryDequeue. Closed loop.
//
// Inputs (key streams and op mixes) are generated from --seed during
// set-up. An untraced run sets the workload up afresh for each of several
// rounds and measures --seconds/rounds in each. The end-to-end metrics,
// latency percentiles over all rounds' samples and the rest medians over
// rounds, are throughput_ops_s (public calls, or pool tasks, per second),
// latency_p50_us and latency_p99_us (per call, or per pool root job),
// hit_rate (cache hits per lookup; for the pool, tasks found on the
// worker's own deque; for the queue, TryDequeue calls that found a value),
// cpu_s_per_mop (process CPU per million ops), alloc_bytes_per_op,
// heap_live_mib (live heap after the window less the live heap before
// set-up: the structure and its inputs) and setup_s. Failed operations are
// counted in the result's "failed" field against "attempted".
//
// With --trace 1 the run sets up once, measures an untraced window of
// --seconds/2, then a traced window of at most as long that records a span
// around every public call the benchmark makes and stops early when the
// span buffers fill. The spans are written as CSV under --trace-dir; the
// per-layer metrics come from them and from the structures' public
// counters, and a layer the workload does not call reports 0.
//
// The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage, from this directory:
//
//	go run . --workload cache-read-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// window runs one timed phase of length d, traced when tr is not nil.
	window(d time.Duration, tr *trace) window
	// recorders is how many span recorders a traced window needs.
	recorders() int
	// finish drains the structure and checks its outputs and invariants.
	// It returns the operations attempted over the workload's life, those
	// that failed, and the name of every violated check.
	finish() (attempted, failed int64, violations []string)
	close()
}

// window is what one timed phase measured.
type window struct {
	ops           int64 // completed public calls, or pool tasks
	lat           *hist // per call, or per pool root job from its Submit
	hitRate       float64
	before, after snapshot
	// layer holds the per-layer metrics read from the structure's public
	// counters at the window's edges.
	layer      map[string]float64
	violations []string
}

type spec struct {
	name string
	make func(seed uint64, clients int) (workload, error)
}

var specs = []spec{
	{"cache-read-zipf", func(seed uint64, clients int) (workload, error) {
		return newCacheWL(cacheSpec{keys: 1 << 20, theta: 0.99, setPct: 5, aside: true}, seed, clients)
	}},
	{"cache-churn-scan", func(seed uint64, clients int) (workload, error) {
		return newCacheWL(cacheSpec{keys: 4 << 20, theta: 0.6, setPct: 50}, seed, clients)
	}},
	{"pool-forkjoin-closed", func(_ uint64, clients int) (workload, error) {
		return newPoolWL(clients)
	}},
	{"queue-ms-hp", func(_ uint64, clients int) (workload, error) {
		return newQueueWL(clients)
	}},
}

// rounds is how many times an untraced run sets the workload up and
// measures it, each time for --seconds/rounds.
const rounds = 12

// traceCapacity is each recorder's span buffer (32 bytes a span).
const traceCapacity = 1 << 19

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	idx := slices.IndexFunc(specs, func(s spec) bool { return s.name == *name })
	if idx < 0 {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	total := time.Duration(*seconds * float64(time.Second))
	setUp := func() (workload, float64, error) {
		runtime.GC()
		t0 := since()
		w, err := specs[idx].make(*seed, procs)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		return w, (since() - t0).Seconds(), nil
	}
	fmt.Printf("workload %s seed %d GOMAXPROCS %d clients %d\n", *name, *seed, procs, procs)

	metrics := map[string]metric{}
	var attempted, failed int64
	var violations []string
	tally := func(w workload, rs ...window) {
		a, f, v := w.finish()
		w.close()
		attempted += a
		failed += f
		violations = append(violations, v...)
		for _, r := range rs {
			failed += int64(len(r.violations))
			violations = append(violations, r.violations...)
		}
	}
	if *traced == 0 {
		// Each round sets the workload up afresh and measures one window,
		// so that one disturbed window, or one unlucky hash seed or memory
		// layout, moves no metric much.
		var rs []window
		var setups, heaps []float64
		var lat *hist
		for r := 0; r < rounds; r++ {
			base := liveHeapMiB()
			w, setup, err := setUp()
			if err != nil {
				return err
			}
			runtime.GC()
			res := w.window(total/rounds, nil)
			fmt.Printf("round %d: set-up %.3fs, %.6g ops/s, p50 %.4gus, p99 %.4gus\n", r+1, setup,
				throughput(res), res.lat.quantile(0.50)/1e3, res.lat.quantile(0.99)/1e3)
			// Fold the round's latencies into one accumulator and drop the
			// round's histogram, so the live heap holds the structure and
			// its inputs, not the benchmark's histograms.
			if lat == nil {
				lat = newHist(res.lat.shift)
			}
			lat.merge(res.lat)
			res.lat = nil
			heaps = append(heaps, liveHeapMiB()-base)
			setups = append(setups, setup)
			rs = append(rs, res)
			tally(w, res)
		}
		endToEnd(metrics, rs, lat, heaps, setups)
		fmt.Printf("%d rounds of %.3fs, %d latency samples\n", rounds, (total / rounds).Seconds(), lat.n)
	} else {
		w, _, err := setUp()
		if err != nil {
			return err
		}
		runtime.GC()
		res0 := w.window(total/2, nil)
		tr := newTrace(w.recorders(), traceCapacity)
		res1 := w.window(total/2, tr)
		tally(w, res0, res1)
		ls := tr.analyse()
		path, err := tr.write(*traceDir, *name)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("untraced window %.3fs, traced window %.3fs, %d spans written to %s\n",
			(res0.after.at - res0.before.at).Seconds(), (res1.after.at - res1.before.at).Seconds(), ls.spans, path)
		perLayer(metrics, res0, res1, ls)
	}

	for _, v := range violations {
		fmt.Println("VIOLATION", v)
	}
	fmt.Printf("fail_ratio %g (%d of %d operations failed)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out := result{Correct: len(violations) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd fills the metrics a user of the library sees from the untraced
// rounds: latency percentiles over all their samples, merged in lat, every
// other metric the median over rounds.
func endToEnd(m map[string]metric, rs []window, lat *hist, heaps, setups []float64) {
	med := func(f func(r window) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	m["throughput_ops_s"] = metric{med(throughput), "ops/s"}
	// Latency percentiles pool the samples of every round: a round's p99
	// moves with its structure's random hash seed, and the pooled figure
	// averages that out better than a median of rounds.
	m["latency_p50_us"] = metric{lat.quantile(0.50) / 1e3, "us"}
	m["latency_p99_us"] = metric{lat.quantile(0.99) / 1e3, "us"}
	m["hit_rate"] = metric{med(func(r window) float64 { return r.hitRate }), "ratio"}
	m["cpu_s_per_mop"] = metric{med(func(r window) float64 {
		return (r.after.cpu - r.before.cpu).Seconds() / (float64(r.ops) / 1e6)
	}), "s"}
	m["alloc_bytes_per_op"] = metric{med(func(r window) float64 {
		return float64(r.after.alloc-r.before.alloc) / float64(r.ops)
	}), "B"}
	m["heap_live_mib"] = metric{median(heaps), "MiB"}
	m["setup_s"] = metric{median(setups), "s"}
}

// perLayerNames lists every per-layer metric with its unit. A workload
// that does not call a layer reports 0 for it.
var perLayerNames = [][2]string{
	{"cache.get_hit_ns.p50", "ns"}, {"cache.get_hit_ns.p99", "ns"}, {"cache.get_miss_ns.p50", "ns"},
	{"cache.set_ns.p50", "ns"}, {"cache.set_ns.p99", "ns"},
	{"cache.evictions_per_set", "1/op"}, {"cache.evict_considered_per_set", "1/op"},
	{"cache.admission_reject_ratio", "ratio"}, {"cache.weight_resident_ratio", "ratio"},
	{"pool.submit_ns.p50", "ns"}, {"pool.submit_ns.p99", "ns"},
	{"pool.queue_wait_us.p50", "us"}, {"pool.queue_wait_us.p99", "us"},
	{"pool.spawn_wait_us.p50", "us"}, {"pool.spawn_wait_us.p99", "us"},
	{"pool.handler_us.p50", "us"},
	{"pool.parks_per_ktask", "1/ktask"}, {"pool.steal_ratio", "ratio"},
	{"pool.local_hit_ratio", "ratio"}, {"pool.inject_hit_ratio", "ratio"},
	{"queue.enqueue_ns.p50", "ns"}, {"queue.enqueue_ns.p99", "ns"},
	{"queue.dequeue_ns.p50", "ns"}, {"queue.dequeue_ns.p99", "ns"},
	{"queue.empty_dequeue_ratio", "ratio"},
	{"reclaim.pending_max", "count"}, {"reclaim.reclaimed_per_dequeue", "ratio"},
	{"runtime.gc_cycles_per_mop", "1/Mop"}, {"runtime.gc_cpu_fraction", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// perLayer fills the per-layer metrics: counter-derived ones from the
// untraced window r0, span-derived ones from the traced window r1.
func perLayer(m map[string]metric, r0, r1 window, ls layerStats) {
	v := map[string]float64{}
	for k, x := range r0.layer {
		v[k] = x
	}
	q := func(name uint8, p float64) float64 { return ls.self[name].quantile(p) }
	v["cache.get_hit_ns.p50"] = q(spanGetHit, 0.50)
	v["cache.get_hit_ns.p99"] = q(spanGetHit, 0.99)
	v["cache.get_miss_ns.p50"] = q(spanGetMiss, 0.50)
	v["cache.set_ns.p50"] = q(spanSet, 0.50)
	v["cache.set_ns.p99"] = q(spanSet, 0.99)
	v["pool.submit_ns.p50"] = q(spanSubmit, 0.50)
	v["pool.submit_ns.p99"] = q(spanSubmit, 0.99)
	v["pool.queue_wait_us.p50"] = ls.queueWait.quantile(0.50) / 1e3
	v["pool.queue_wait_us.p99"] = ls.queueWait.quantile(0.99) / 1e3
	v["pool.spawn_wait_us.p50"] = ls.spawnWait.quantile(0.50) / 1e3
	v["pool.spawn_wait_us.p99"] = ls.spawnWait.quantile(0.99) / 1e3
	v["pool.handler_us.p50"] = q(spanTask, 0.50) / 1e3
	v["queue.enqueue_ns.p50"] = q(spanEnqueue, 0.50)
	v["queue.enqueue_ns.p99"] = q(spanEnqueue, 0.99)
	deq := mergeAll([]*hist{ls.self[spanDequeue], ls.self[spanDequeueEmpty]})
	v["queue.dequeue_ns.p50"] = deq.quantile(0.50)
	v["queue.dequeue_ns.p99"] = deq.quantile(0.99)
	v["queue.empty_dequeue_ratio"] = ratio(float64(ls.self[spanDequeueEmpty].n), float64(deq.n))
	mops := float64(r0.ops) / 1e6
	v["runtime.gc_cycles_per_mop"] = ratio(float64(r0.after.gcCycles-r0.before.gcCycles), mops)
	v["runtime.gc_cpu_fraction"] = ratio(r0.after.gcCPU-r0.before.gcCPU, r0.after.allCPU-r0.before.allCPU)
	v["bench.trace_overhead_ratio"] = ratio(throughput(r1), throughput(r0))
	for _, nu := range perLayerNames {
		m[nu[0]] = metric{v[nu[0]], nu[1]}
	}
}

func throughput(r window) float64 { return ratio(float64(r.ops), (r.after.at - r.before.at).Seconds()) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
