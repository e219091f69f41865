package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/cds-suite/cds/cache"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/internal/zipf"
)

// The cache workloads use the webcache deployment shape: SIEVE with
// TinyLFU admission under a weight budget, heavy-tailed entry weights.
const (
	cacheCapacity = 64 << 10
	// cacheWeightBudget holds about cacheCapacity entries: the mean of
	// cacheWeight is about 12.
	cacheWeightBudget = 12 * cacheCapacity
	// cacheStreamLen is each client's pregenerated op stream, replayed
	// cyclically; it is 8 times the capacity, so replay does not turn the
	// stream into a loop the cache can hold.
	cacheStreamLen = 1 << 19
	// cacheWarmOps is each client's warm-up before timing, two passes over
	// its stream: with less, the hit rate is still rising and admissions
	// still falling when timing starts.
	cacheWarmOps = 2 * cacheStreamLen
	// setFlag marks a Set in an op stream; keys stay below it.
	setFlag = 1 << 63
)

type cacheSpec struct {
	keys  uint64
	theta float64
	// setPct is the share of ops that are plain Sets, in percent.
	setPct uint64
	// aside makes every Get miss followed by a Set of the key (cache-aside).
	aside bool
}

// cacheWeight is the deterministic heavy-tailed weigher: mostly 1..16,
// with 1 key in 128 weighing 512.
func cacheWeight(k, _ uint64) int64 {
	x := k + 1
	h := xrand.SplitMix64(&x)
	if h%128 == 0 {
		return 512
	}
	return int64(1 + h%16)
}

// cacheValue is the value stored for k; every hit is checked against it.
// Multiplying by an odd constant is a bijection, so no two keys share one.
func cacheValue(k uint64) uint64 { return k*0x9e3779b97f4a7c15 + 1 }

type cacheWL struct {
	spec    cacheSpec
	c       *cache.Cache[uint64, uint64]
	streams [][]uint64
	pos     []int

	// Totals over the cache's whole life, warm-up included, checked
	// against its Stats at the end.
	gets, hits, calls, wrong int64
}

func newCacheWL(spec cacheSpec, seed uint64, clients int) (workload, error) {
	g, err := zipf.New(spec.keys, spec.theta, seed)
	if err != nil {
		return nil, err
	}
	mix := xrand.New(seed ^ 0x6d69780a)
	w := &cacheWL{spec: spec, pos: make([]int, clients)}
	for c := 0; c < clients; c++ {
		s := make([]uint64, cacheStreamLen)
		for i := range s {
			s[i] = g.Next()
			if mix.Uint64n(100) < spec.setPct {
				s[i] |= setFlag
			}
		}
		w.streams = append(w.streams, s)
	}
	w.c = cache.New[uint64, uint64](cacheCapacity,
		cache.WithAdmission(cache.TinyLFU),
		cache.WithMaxWeight(cacheWeightBudget),
		cache.WithWeigher(cacheWeight))
	// Warm-up: the clients run concurrently, so the timed phase starts at
	// the steady-state hit rate.
	w.drive(time.Duration(1<<62), cacheWarmOps, nil, w.newClients())
	return w, nil
}

// cacheClient is what one client goroutine counts in a window.
type cacheClient struct {
	lat                     *hist
	calls, gets, hits, sets int64
	wrong                   int64
}

// drive runs every client until the deadline passes, each has made limit
// ops, or (traced) a span buffer fills.
func (w *cacheWL) drive(deadline time.Duration, limit int, tr *trace, outs []*cacheClient) {
	var wg sync.WaitGroup
	for c := range w.streams {
		var rec *recorder
		if tr != nil {
			rec = tr.recs[c]
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, deadline, limit, rec, outs[c])
		}(c)
	}
	wg.Wait()
	for _, o := range outs {
		w.gets += o.gets
		w.hits += o.hits
		w.calls += o.calls
		w.wrong += o.wrong
	}
}

// newClients allocates the per-client counters, outside any timed window.
func (w *cacheWL) newClients() []*cacheClient {
	outs := make([]*cacheClient, len(w.streams))
	for c := range outs {
		outs[c] = &cacheClient{lat: newHist(0)}
	}
	return outs
}

func (w *cacheWL) client(c int, deadline time.Duration, limit int, rec *recorder, o *cacheClient) {
	ops, pos := w.streams[c], w.pos[c]
	var gets, hits, sets, wrong int64
	req := uint32(c) << 28
	// Each call is timed from a clock read just before it, so that no
	// sample holds the benchmark's own work between calls.
	for n, now := 0, since(); n < limit && now < deadline; n++ {
		if rec != nil && rec.full.Load() {
			break
		}
		op := ops[pos]
		if pos++; pos == len(ops) {
			pos = 0
		}
		k := op &^ setFlag
		req++
		set := op&setFlag != 0
		if !set {
			start := since()
			v, ok := w.c.Get(k)
			now = since()
			o.lat.record(int64(now - start))
			if rec != nil {
				name := spanGetMiss
				if ok {
					name = spanGetHit
				}
				rec.add(name, req, int64(start), int64(now), noSpan, noSpan)
			}
			gets++
			if ok {
				hits++
				if v != cacheValue(k) {
					wrong++
				}
			}
			set = !ok && w.spec.aside
		}
		if set {
			v := cacheValue(k)
			start := since()
			w.c.Set(k, v)
			now = since()
			o.lat.record(int64(now - start))
			if rec != nil {
				rec.add(spanSet, req, int64(start), int64(now), noSpan, noSpan)
			}
			sets++
		}
	}
	w.pos[c] = pos
	o.calls, o.gets, o.hits, o.sets, o.wrong = gets+sets, gets, hits, sets, wrong
}

func (w *cacheWL) recorders() int { return len(w.streams) }

func (w *cacheWL) window(d time.Duration, tr *trace) window {
	outs := w.newClients()
	st0 := w.c.Stats()
	before := takeSnapshot()
	w.drive(before.at+d, 1<<62, tr, outs)
	after := takeSnapshot()
	st1 := w.c.Stats()
	res := window{before: before, after: after, layer: map[string]float64{}}
	var hs []*hist
	var sets int64
	for _, o := range outs {
		res.ops += o.calls
		sets += o.sets
		hs = append(hs, o.lat)
	}
	res.lat = mergeAll(hs)
	dHits, dMiss := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	res.hitRate = ratio(float64(dHits), float64(dHits+dMiss))
	considered := float64(st1.EvictConsidered - st0.EvictConsidered)
	res.layer["cache.evictions_per_set"] = ratio(float64(st1.Evictions-st0.Evictions), float64(sets))
	res.layer["cache.evict_considered_per_set"] = ratio(considered, float64(sets))
	res.layer["cache.admission_reject_ratio"] = ratio(float64(st1.AdmissionRejects-st0.AdmissionRejects), considered)
	res.layer["cache.weight_resident_ratio"] = ratio(float64(st1.WeightResident), float64(w.c.MaxWeight()))
	return res
}

func (w *cacheWL) finish() (attempted, failed int64, violations []string) {
	st := w.c.Stats()
	check := func(ok bool, name string, args ...any) {
		if !ok {
			violations = append(violations, fmt.Sprintf(name, args...))
		}
	}
	check(st.Lookups() == w.gets, "cache: hits+misses %d != lookups made %d", st.Lookups(), w.gets)
	check(st.Hits == w.hits, "cache: Stats.Hits %d != hits seen %d", st.Hits, w.hits)
	check(st.AdmissionRejects <= st.EvictConsidered, "cache: admission_rejects %d > evict_considered %d",
		st.AdmissionRejects, st.EvictConsidered)
	check(st.WeightResident <= w.c.MaxWeight(), "cache: weight_resident %d > max_weight %d",
		st.WeightResident, w.c.MaxWeight())
	failed = int64(len(violations)) + w.wrong
	if w.wrong > 0 {
		violations = append(violations, fmt.Sprintf("cache: %d hits returned a wrong value", w.wrong))
	}
	return w.calls, failed, violations
}

func (w *cacheWL) close() { w.c.Close() }
