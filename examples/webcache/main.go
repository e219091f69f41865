// Webcache: a read-heavy bounded cache in front of a slow "origin", the
// canonical deployment of the cache package. Earlier revisions of this
// example rolled their own cache on a raw concurrent map, which had two
// real bugs this rewrite retires:
//
//   - the per-client request split used requests/clients and silently
//     dropped the remainder, so the reported totals never matched the
//     requested load on client counts that do not divide it;
//   - expired entries were overwritten but never removed, so with a key
//     space larger than capacity the "cache" grew without bound.
//
// The cache package fixes the second structurally: capacity-bounded
// shards evict with SIEVE, TTL expiry removes stale entries (lazily on
// read plus a background sweeper), and GetOrLoad collapses concurrent
// misses on a hot key into one origin fetch. This revision also uses the
// two capacity features a real web cache needs:
//
//   - weighted entries: origin objects are not uniformly sized (most are
//     small, a few are giants), so the cache is bounded by a byte budget
//     (WithMaxWeight + WithWeigher) rather than an entry count — one
//     giant displaces many small objects instead of occupying one slot;
//   - TinyLFU admission (WithAdmission): the long Zipf tail is full of
//     one-touch keys, and admitting each one would evict an object with
//     a real reuse chance. The frequency sketch turns those cold inserts
//     away at the eviction boundary instead.
//
// The example asserts the regression properties at the end of the run —
// accounting must balance exactly, the steady-state size must stay within
// capacity even though the key space is orders of magnitude larger, and
// the weight/admission gauges must respect their invariants (resident
// weight <= budget, rejects <= victims considered).
//
// The simulated clients draw keys from a Zipfian distribution, as real
// content popularity does.
//
// Run with:
//
//	go run ./examples/webcache
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/cds-suite/cds/cache"
	"github.com/cds-suite/cds/internal/exampleenv"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/internal/zipf"
)

// requests is the simulated load; CDS_EXAMPLE_OPS overrides it so CI can
// smoke-run the example without paying for the full demonstration.
var requests = exampleenv.Ops(200000)

// payloadSize is the origin object's size for a key: deterministic,
// mostly small (64..1023 bytes), with ~1 in 128 keys a 16 KiB giant.
// The heavy tail is what makes a byte budget differ from an entry count.
func payloadSize(key uint64) int {
	s := key + 1
	h := xrand.SplitMix64(&s)
	if h%128 == 0 {
		return 16 << 10
	}
	return 64 + int(h%960)
}

// splitRequests divides total across clients so every request is issued:
// each client gets the base share and the first total%clients clients
// carry one extra, instead of truncating the remainder away.
func splitRequests(total, clients int) []int {
	shares := make([]int, clients)
	base, extra := total/clients, total%clients
	for i := range shares {
		shares[i] = base
		if i < extra {
			shares[i]++
		}
	}
	return shares
}

// runStats is what one simulation reports; main prints it, the smoke test
// asserts on it.
type runStats struct {
	stats     cache.Stats
	size      int
	maxWeight int64
	elapsed   time.Duration
	// laws is the first conservation law the final cache state broke
	// (see cache.Cache.Gauges), or nil.
	laws error
}

// run drives clients workers through the cache for the given total
// request count and returns the final accounting.
func run(total, clients, keySpace, capacity int, budget int64, ttl time.Duration) runStats {
	c := cache.New[uint64, string](capacity,
		cache.WithTTL(ttl),
		cache.WithMaxWeight(budget),
		cache.WithWeigher(func(_ uint64, v string) int64 { return int64(len(v)) }),
		cache.WithAdmission(cache.TinyLFU),
	)
	defer c.Close()

	origin := func(_ context.Context, key uint64) (string, error) {
		// A "slow" origin: a microsecond-ish of fake CPU work. A spin is
		// used instead of time.Sleep because the sleep's ~1ms timer
		// granularity would dominate the whole simulation.
		x := key
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		if x == 0 { // never true; defeats dead-code elimination
			return "", nil
		}
		header := fmt.Sprintf("content-%d:", key)
		return header + strings.Repeat("x", payloadSize(key)-len(header)), nil
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for cl, share := range splitRequests(total, clients) {
		wg.Add(1)
		go func(cl, share int) {
			defer wg.Done()
			keys, err := zipf.New(uint64(keySpace), 0.99, uint64(cl)+1)
			if err != nil {
				panic(err) // static parameters; cannot fail
			}
			for i := 0; i < share; i++ {
				if _, err := c.GetOrLoad(context.Background(), keys.Next(), origin); err != nil {
					panic(err) // origin never fails in the simulation
				}
			}
		}(cl, share)
	}
	wg.Wait()

	return runStats{
		stats:     c.Stats(),
		size:      c.Len(),
		maxWeight: c.MaxWeight(),
		elapsed:   time.Since(t0),
		laws:      c.Gauges(func(string, float64) {}),
	}
}

// check verifies the two regression properties the old example violated,
// plus the laws the cache declares (resident weight within the budget,
// every admission rejection preceded by a considered victim).
func (r runStats) check(total, capacity int) error {
	if got := r.stats.Lookups(); got != int64(total) {
		return fmt.Errorf("accounting: hits(%d) + misses(%d) = %d, want exactly %d requests",
			r.stats.Hits, r.stats.Misses, got, total)
	}
	if r.size > capacity {
		return fmt.Errorf("unbounded growth: %d resident entries, capacity %d", r.size, capacity)
	}
	return r.laws
}

func main() {
	const (
		keySpace = 100000
		capacity = 4096    // deliberately far smaller than the key space
		budget   = 1 << 20 // 1 MiB byte budget: binds before the entry count does
		ttl      = 500 * time.Millisecond
	)
	clients := runtime.GOMAXPROCS(0)

	r := run(requests, clients, keySpace, capacity, budget, ttl)
	st := r.stats

	total := st.Lookups()
	fmt.Printf("requests:   %d in %.0fms (%.2f M req/s)\n",
		total, r.elapsed.Seconds()*1000, float64(total)/r.elapsed.Seconds()/1e6)
	fmt.Printf("hit rate:   %.1f%% (%d hits, %d misses)\n",
		100*st.HitRate(), st.Hits, st.Misses)
	fmt.Printf("origin:     %d fetches (%d stampedes suppressed)\n",
		st.Loads, st.StampedeSuppressed)
	fmt.Printf("cache size: %d entries (capacity %d, %d evicted, %d expired)\n",
		r.size, capacity, st.Evictions, st.Expired)
	fmt.Printf("weight:     %d / %d bytes resident\n", st.WeightResident, r.maxWeight)
	fmt.Printf("admission:  %d cold inserts rejected (%d victims considered)\n",
		st.AdmissionRejects, st.EvictConsidered)

	if err := r.check(requests, capacity); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
}
