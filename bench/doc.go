// Package bench is the measurement harness behind the experiment suite
// (`cdsbench -list` names every experiment): deterministic workload
// generation (uniform and Zipfian key streams), a worker runner with a
// synchronised start line, per-operation latency sampling into
// log-bucketed histograms, and one table of cells. Every experiment — the
// survey's figures (F) and tables (T), the scenario matrix (S) and the
// ablations (A) — is a set of Scenarios whose cells (ScenarioAlgo) each
// build a structure from their family's implementation table and yield
// Records. Two renderers read the records: aligned text tables in the
// shape the survey figures use, and a machine-readable JSON Report for
// tracking results across revisions.
//
// Use cmd/cdsbench to regenerate every figure/table, or BenchmarkSuite in
// the repository root to run the same cells under `go test -bench`.
// README's "Reading the benchmarks" section walks through interpreting
// the output; this comment is the schema reference.
//
// # JSON schema
//
// A serialized Report (cdsbench -format json) is one JSON object:
//
//	{
//	  "schema": "cds-bench/v1",
//	  "meta": {
//	    "go_version":   "go1.24.0",     // runtime.Version()
//	    "goos":         "linux",
//	    "goarch":       "amd64",
//	    "num_cpu":      8,
//	    "gomaxprocs":   8,
//	    "git_revision": "abc1234",      // build/VCS info; "unknown" if absent
//	    "quick":        false,          // -quick smoke sizing was in effect
//	    "unix_time":    1750000000      // seconds; 0 in golden-file tests
//	  },
//	  "records": [ Record... ]
//	}
//
// and each Record is one measured cell:
//
//	{
//	  "family":     "queue",           // structure family ("queue", "cmap", ...)
//	  "algo":       "MS",              // algorithm / implementation label
//	  "scenario":   "enq-heavy-70/30", // workload description
//	  "threads":    4,                 // worker count
//	  "ops":        400000,            // operations the run completed,
//	  "elapsed_ns": 12345678,          // its measured time, and their
//	  "ns_per_op":  81.6,              // ratio; present on every record
//	                                   // (a percent record shares its run's)
//	  "value":      12.251,            // headline metric in "unit"
//	  "unit":       "mops",            // "mops" unless noted (e.g. "percent")
//	  "p50_ns":     71,                // latency percentiles; present only
//	  "p90_ns":     102,               // when the cell sampled per-op
//	  "p99_ns":     913,               // latency (S and F12 records do,
//	  "p999_ns":    4096,              // the other F/T/A records do not)
//	  "samples":    400000,            // latency samples behind them
//	  "gauges": {                      // end-of-run structure gauges;
//	    "pending_garbage": 128,        // present only on cells that
//	    "reclaimed":       399872      // report them
//	  }
//	}
//
// Gauges come from the structures' own counter snapshots, each read
// through one method, Gauges(emit func(name string, v float64)) error:
// reclaim domains (F12, S14 reclaim-structs; pending_garbage/reclaimed),
// contend.DelegatorStats (S13 combining-backed rows), dual.Stats (S15),
// pool.Stats (S16 WorkStealing), cache.Cache (S17) and
// queue.SegStats/queue.MPMCStats (S18, S2). The harness adds what it
// counts itself: S17's hits/misses/lookups/hit_rate and
// distinct_cold_keys, S18's enqueues/dequeues/residual. Each snapshot
// declares its conservation laws in its doc comment and Gauges checks
// them; after every cell a broken law fails the run with an error naming
// the cell and the law, so every report on disk has passed them. Rows
// without counters (baselines such as the S15/S16 channels) carry no
// gauges. Blocking cells bound every operation with a cancellation
// deadline, so their latency percentiles include parked time — wait
// behaviour is the measurement, not a distortion of it.
//
// Records are append-only across schema versions: consumers must ignore
// unknown fields, and field removals or meaning changes bump the schema
// string.
package bench
