package cache

import (
	"fmt"
	"testing"
)

// fnv64 is a deterministic key hash the admission trace tests swap in for
// the cache's randomly seeded default: with a fixed hash, a fixed access
// sequence drives the per-shard sketch (whose seed is already
// deterministic) through exactly the same estimates on every run.
func fnv64(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// tinyLFU returns a single-shard TinyLFU cache with a deterministic hash,
// so admission decisions replay identically on every run.
func tinyLFU(capacity int, p Policy) *Cache[string, int] {
	c := New[string, int](capacity, WithPolicy(p), WithShards(1), WithAdmission(TinyLFU))
	c.hash = fnv64
	return c
}

// TestAdmissionRejectsColdCandidate pins the core TinyLFU decision: a key
// seen once must not displace residents seen twice. Each resident was Set
// (one touch) and Get (another), so its estimate is 2; the candidate's
// single Set leaves it at 1 (doorkeeper only), and 1 > 2 fails.
func TestAdmissionRejectsColdCandidate(t *testing.T) {
	c := tinyLFU(3, SIEVE)
	for _, k := range []string{"a", "b", "c"} {
		c.Set(k, 1)
		if _, ok := c.Get(k); !ok {
			t.Fatalf("warm-up Get(%q) missed", k)
		}
	}
	c.Set("d", 4)
	wantAbsent(t, c, "d")
	wantPresent(t, c, "a", "b", "c")
	st := c.Stats()
	if st.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", st.AdmissionRejects)
	}
	if st.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0 (rejected insert must not evict)", st.Evictions)
	}
	checkLaws(t, c)
}

// TestAdmissionAdmitsHotCandidate continues the cold-candidate trace: the
// same rejected key, once it accumulates more touches than the victim
// (misses feed the sketch too), wins the comparison and evicts.
func TestAdmissionAdmitsHotCandidate(t *testing.T) {
	c := tinyLFU(3, SIEVE)
	for _, k := range []string{"a", "b", "c"} {
		c.Set(k, 1)
		c.Get(k)
	}
	c.Set("d", 4) // rejected: estimate 1 vs 2
	wantAbsent(t, c, "d")
	for i := 0; i < 3; i++ {
		c.Get("d") // misses, but each one still counts as a touch
	}
	c.Set("d", 4) // now estimate 5 vs the victim's 2
	wantPresent(t, c, "d")
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1 (only the first Set)", st.AdmissionRejects)
	}
}

// TestAdmissionDoorkeeperScan pins the doorkeeper + strict-comparison
// combination that makes TinyLFU scan-proof: every key in a
// first-touch-only scan estimates 1 (doorkeeper, counters untouched), a
// resident Set once also estimates 1, and the strict > breaks the tie for
// residency — so a scan of any length is rejected wholesale, even against
// residents that were never read.
func TestAdmissionDoorkeeperScan(t *testing.T) {
	c := tinyLFU(3, SIEVE)
	c.Set("a", 1)
	c.Set("b", 2)
	c.Set("c", 3)
	for i := 0; i < 10; i++ {
		c.Set(fmt.Sprintf("s%d", i), i)
	}
	wantPresent(t, c, "a", "b", "c")
	st := c.Stats()
	if st.AdmissionRejects != 10 {
		t.Fatalf("AdmissionRejects = %d, want 10 (every scan key)", st.AdmissionRejects)
	}
	if st.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", st.Evictions)
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestAdmissionFlipsAfterAging pins the decay half of the protocol: a
// saturated resident outvotes a warm candidate, but agings halve the
// resident's estimate until the same candidate wins. The test drives the
// shard's sketch directly (in-package) rather than forcing sample-size
// touches through the cache.
func TestAdmissionFlipsAfterAging(t *testing.T) {
	c := tinyLFU(1, SIEVE)
	c.Set("hot", 1)
	for i := 0; i < 30; i++ {
		c.Get("hot") // saturate: estimate 16
	}
	for i := 0; i < 4; i++ {
		c.Get("d") // warm the candidate
	}
	c.Set("d", 4) // the Set's own touch lands too: estimate 5 vs 16
	wantAbsent(t, c, "d")
	if st := c.Stats(); st.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1 (5 vs saturated 16)", st.AdmissionRejects)
	}

	// Two agings: 16 -> 7 -> 3. The doorkeeper cleared too, so re-warm the
	// candidate (4 touches + the Set's: estimate 5) and retry — 5 > 3
	// admits.
	c.shards[0].adm.sk.Age()
	c.shards[0].adm.sk.Age()
	for i := 0; i < 4; i++ {
		c.Get("d")
	}
	c.Set("d", 4)
	wantPresent(t, c, "d")
	wantAbsent(t, c, "hot")
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestAdmissionComposesWithPolicies smoke-checks WithAdmission against
// every eviction policy: the cold-scan rejection must hold regardless of
// which policy picks the victim.
func TestAdmissionComposesWithPolicies(t *testing.T) {
	for _, p := range []Policy{SIEVE, S3FIFO, LRU} {
		c := tinyLFU(3, p)
		for _, k := range []string{"a", "b", "c"} {
			c.Set(k, 1)
			c.Get(k)
		}
		c.Set("d", 4)
		if _, ok := c.Get("d"); ok {
			t.Errorf("%v: cold candidate admitted", p)
		}
		if got := c.Len(); got != 3 {
			t.Errorf("%v: Len = %d, want 3", p, got)
		}
		if st := c.Stats(); st.AdmissionRejects == 0 {
			t.Errorf("%v: AdmissionRejects = 0, want > 0", p)
		}
	}
}
