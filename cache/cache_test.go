package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// single returns a single-shard cache so eviction order is deterministic.
func single(capacity int, p Policy) *Cache[string, int] {
	return New[string, int](capacity, WithPolicy(p), WithShards(1))
}

func wantPresent(t *testing.T, c *Cache[string, int], keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			t.Errorf("Get(%q) = miss, want hit", k)
		}
	}
}

func wantAbsent(t *testing.T, c *Cache[string, int], keys ...string) {
	t.Helper()
	for _, k := range keys {
		if v, ok := c.Get(k); ok {
			t.Errorf("Get(%q) = %d, want miss", k, v)
		}
	}
}

// TestSIEVEEvictionOrder pins the SIEVE hand walk on a hand-computed
// history: with {a,b,c} resident and only a visited, inserting d must
// sweep past a (clearing its bit) and evict b, the oldest unvisited entry.
func TestSIEVEEvictionOrder(t *testing.T) {
	c := single(3, SIEVE)
	c.Set("a", 1)
	c.Set("b", 2)
	c.Set("c", 3)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("warm-up Get(a) missed")
	}
	c.Set("d", 4)
	wantAbsent(t, c, "b")
	wantPresent(t, c, "a", "c", "d")
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	// a's bit was cleared by the sweep; with everything now visited except
	// a, the hand (parked at c) evicts c next.
	c.Set("d", 40) // refresh d's bit via the update-counts-as-hit path
	c.Set("e", 5)
	wantAbsent(t, c, "c")
	wantPresent(t, c, "a", "d", "e")
}

// TestS3FIFOEvictionOrder pins the S3-FIFO trace: one-hit wonders leave
// through the small queue into the ghost queue, reused entries are
// promoted to main, and a ghost key re-enters straight into main.
func TestS3FIFOEvictionOrder(t *testing.T) {
	c := single(4, S3FIFO) // smallCap = 1
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Set(k, i)
	}
	c.Get("b")
	c.Get("b") // freq(b) = 2: survives probation
	c.Set("e", 4)
	// small over capacity: tail a has freq 0 -> evicted (and ghosted).
	wantAbsent(t, c, "a")
	wantPresent(t, c, "b", "c", "d", "e")
	c.Set("a", 10)
	// a's ghost promotes it straight to main; the eviction pass then pops
	// small's tail b (freq 2 -> promote to main) and evicts c (freq 0).
	wantAbsent(t, c, "c")
	wantPresent(t, c, "a", "b", "d", "e")
	if got := c.Stats().Evictions; got != 2 {
		t.Fatalf("Evictions = %d, want 2", got)
	}
}

// TestLRUEvictionOrder pins classic LRU: a hit saves an entry, the least
// recently used entry goes.
func TestLRUEvictionOrder(t *testing.T) {
	c := single(3, LRU)
	c.Set("a", 1)
	c.Set("b", 2)
	c.Set("c", 3)
	c.Get("a")
	c.Set("d", 4) // b is now least recently used
	wantAbsent(t, c, "b")
	wantPresent(t, c, "a", "c", "d")
}

func TestCapacityIsRespected(t *testing.T) {
	for _, p := range []Policy{SIEVE, S3FIFO, LRU} {
		t.Run(p.String(), func(t *testing.T) {
			c := New[int, int](10, WithPolicy(p), WithShards(4))
			for i := 0; i < 1000; i++ {
				c.Set(i, i)
				if n := c.Len(); n > 10 {
					t.Fatalf("Len = %d after %d inserts, want <= 10", n, i+1)
				}
			}
			if n := c.Len(); n != 10 {
				t.Fatalf("Len = %d at steady state, want 10 (capacity)", n)
			}
		})
	}
}

// TestShardCapacitySplit checks that capacity splits exactly: shard caps
// must sum to the requested capacity even when it does not divide evenly.
func TestShardCapacitySplit(t *testing.T) {
	c := New[int, int](10, WithShards(4))
	sum := 0
	for i := range c.shards {
		if c.shards[i].cap < 1 {
			t.Fatalf("shard %d has capacity %d, want >= 1", i, c.shards[i].cap)
		}
		sum += c.shards[i].cap
	}
	if sum != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", sum)
	}
	// More shards than capacity: the shard count clamps, never the other
	// way around.
	c2 := New[int, int](3, WithShards(16))
	if len(c2.shards) > 3 {
		t.Fatalf("got %d shards for capacity 3, want <= 3", len(c2.shards))
	}
}

func TestDeleteAndLen(t *testing.T) {
	c := single(4, SIEVE)
	c.Set("a", 1)
	c.Set("b", 2)
	if !c.Delete("a") {
		t.Fatal("Delete(a) = false, want true")
	}
	if c.Delete("a") {
		t.Fatal("second Delete(a) = true, want false")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	wantAbsent(t, c, "a")
	wantPresent(t, c, "b")
}

func TestTTLLazyExpiry(t *testing.T) {
	c := New[string, int](8, WithShards(1), WithSweepInterval(0))
	defer c.Close()
	c.SetTTL("k", 1, 10*time.Millisecond)
	wantPresent(t, c, "k")
	time.Sleep(20 * time.Millisecond)
	wantAbsent(t, c, "k")
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d after lazy expiry, want 0", n)
	}
	if st := c.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
	// An expired entry Delete never saw as live reports false.
	c.SetTTL("k", 2, 5*time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	if c.Delete("k") {
		t.Fatal("Delete of expired entry = true, want false")
	}
}

func TestDefaultTTLAndSweeper(t *testing.T) {
	// One shard: with the randomly seeded hash, 32 keys over several
	// capacity-8 shards occasionally overload one and evict instead of
	// expiring, flaking the exact Expired count below.
	c := New[int, int](64, WithShards(1),
		WithTTL(10*time.Millisecond), WithSweepInterval(5*time.Millisecond))
	defer c.Close()
	for i := 0; i < 32; i++ {
		c.Set(i, i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper left Len = %d, want 0", c.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.Expired != 32 {
		t.Fatalf("Expired = %d, want 32", st.Expired)
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := New[int, int](8, WithTTL(time.Hour))
	c.Set(1, 1) // starts the sweeper
	c.Close()
	c.Close()
	// The cache stays usable after Close; only background expiry stops.
	c.Set(2, 2)
	if _, ok := c.Get(2); !ok {
		t.Fatal("Get after Close missed")
	}
}

func TestStatsPartitionLookups(t *testing.T) {
	c := New[int, int](16, WithShards(2))
	for i := 0; i < 100; i++ {
		c.Set(i%24, i)
		c.Get(i % 32)
	}
	st := c.Stats()
	if st.Lookups() != 100 {
		t.Fatalf("Hits(%d) + Misses(%d) = %d, want 100", st.Hits, st.Misses, st.Lookups())
	}
	if hr := st.HitRate(); hr <= 0 || hr > 1 {
		t.Fatalf("HitRate = %v, want in (0, 1]", hr)
	}
	checkLaws(t, c)
	// Hand-built states, one per declared law, that Gauges must reject.
	for _, bad := range []Stats{
		{Misses: 1, StampedeSuppressed: 2},
		{EvictConsidered: 1, AdmissionRejects: 2},
	} {
		if err := bad.Gauges(func(string, float64) {}); err == nil {
			t.Errorf("Gauges accepted %+v", bad)
		}
	}
	over := New[int, int](16, WithShards(1), WithMaxWeight(10))
	over.shards[0].stats.weightRes.Store(11)
	var budget float64
	if err := over.Gauges(func(k string, v float64) {
		if k == "max_weight" {
			budget = v
		}
	}); err == nil || budget != 10 {
		t.Errorf("Gauges on 11 resident of a 10 budget: err = %v, max_weight = %v", err, budget)
	}
}

// checkLaws fails the test when a cache or snapshot breaks a law it
// declares.
func checkLaws(t *testing.T, g interface {
	Gauges(func(string, float64)) error
}) {
	t.Helper()
	if err := g.Gauges(func(string, float64) {}); err != nil {
		t.Fatal(err)
	}
}

func TestGetManySetMany(t *testing.T) {
	c := New[int, string](32, WithShards(4))
	keys := []int{1, 2, 3, 4, 5}
	vals := []string{"a", "b", "c", "d", "e"}
	c.SetMany(keys, vals)
	got, oks := c.GetMany([]int{5, 99, 1, 3})
	want := []string{"e", "", "a", "c"}
	wantOK := []bool{true, false, true, true}
	for i := range got {
		if got[i] != want[i] || oks[i] != wantOK[i] {
			t.Fatalf("GetMany[%d] = (%q, %v), want (%q, %v)", i, got[i], oks[i], want[i], wantOK[i])
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("Stats = %+v, want 3 hits / 1 miss", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetMany with mismatched lengths did not panic")
		}
	}()
	c.SetMany([]int{1}, nil)
}

func TestGetManyExpiresLazily(t *testing.T) {
	for _, p := range []Policy{SIEVE, LRU} { // read-locked and write-locked paths
		t.Run(p.String(), func(t *testing.T) {
			c := New[int, int](8, WithPolicy(p), WithShards(1), WithSweepInterval(0))
			c.SetTTL(1, 1, 5*time.Millisecond)
			c.SetTTL(2, 2, time.Hour)
			time.Sleep(10 * time.Millisecond)
			_, oks := c.GetMany([]int{1, 2})
			if oks[0] || !oks[1] {
				t.Fatalf("oks = %v, want [false true]", oks)
			}
			if n := c.Len(); n != 1 {
				t.Fatalf("Len = %d after batch expiry, want 1", n)
			}
		})
	}
}

func TestGetOrLoadBasic(t *testing.T) {
	c := New[string, int](8, WithShards(1))
	calls := 0
	load := func(ctx context.Context, k string) (int, error) {
		calls++
		return len(k), nil
	}
	v, err := c.GetOrLoad(context.Background(), "four", load)
	if err != nil || v != 4 {
		t.Fatalf("GetOrLoad = (%d, %v), want (4, nil)", v, err)
	}
	// Second call hits the cache: the loader must not run again.
	v, err = c.GetOrLoad(context.Background(), "four", load)
	if err != nil || v != 4 || calls != 1 {
		t.Fatalf("cached GetOrLoad = (%d, %v) after %d calls, want (4, nil) after 1", v, err, calls)
	}
	// Errors are returned and never cached.
	boom := errors.New("boom")
	_, err = c.GetOrLoad(context.Background(), "bad", func(context.Context, string) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	wantAbsent2 := func(k string) {
		if _, ok := c.Get(k); ok {
			t.Fatalf("failed load for %q was cached", k)
		}
	}
	wantAbsent2("bad")
}

// TestGetOrLoadSingleflight holds a leader inside the loader, piles
// followers onto the same key, and asserts exactly one loader call with
// every follower counted as suppressed.
func TestGetOrLoadSingleflight(t *testing.T) {
	const followers = 8
	c := New[string, int](8, WithShards(1))
	entered := make(chan struct{})
	release := make(chan struct{})
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		v, err := c.GetOrLoad(context.Background(), "hot", func(context.Context, string) (int, error) {
			close(entered)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader GetOrLoad = (%d, %v), want (42, nil)", v, err)
		}
	}()
	<-entered
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrLoad(context.Background(), "hot", func(context.Context, string) (int, error) {
				t.Error("follower invoked the loader")
				return 0, nil
			})
			if err != nil || v != 42 {
				t.Errorf("follower GetOrLoad = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	// Followers register as suppressed before blocking on the flight, so
	// the gauge tells us when all of them are parked.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().StampedeSuppressed < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers suppressed, want %d", c.Stats().StampedeSuppressed, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	leaderDone.Wait()
	wg.Wait()
	st := c.Stats()
	if st.Loads != 1 || st.StampedeSuppressed != followers {
		t.Fatalf("Loads = %d, StampedeSuppressed = %d, want 1 and %d", st.Loads, st.StampedeSuppressed, followers)
	}
	checkLaws(t, c)
}

// TestGetOrLoadFollowerContext cancels a follower's context mid-flight:
// the follower must return the context error while the leader's load
// completes normally.
func TestGetOrLoadFollowerContext(t *testing.T) {
	c := New[string, int](8, WithShards(1))
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.GetOrLoad(context.Background(), "k", func(context.Context, string) (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoad(ctx, "k", nil)
		followerErr <- err
	}()
	for c.Stats().StampedeSuppressed < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-followerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	if v, err := c.GetOrLoad(context.Background(), "k", nil); err != nil || v != 1 {
		t.Fatalf("post-flight GetOrLoad = (%d, %v), want (1, nil)", v, err)
	}
}

// TestGetOrLoadPanic panics inside the leader's loader: the flight must
// still be torn down (no wedged followers, no leaked registration) and
// followers receive ErrLoaderPanic.
func TestGetOrLoadPanic(t *testing.T) {
	c := New[string, int](8, WithShards(1))
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("loader panic did not propagate to the leader")
			}
		}()
		c.GetOrLoad(context.Background(), "k", func(context.Context, string) (int, error) {
			close(entered)
			<-release
			panic("loader exploded")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoad(context.Background(), "k", nil)
		followerErr <- err
	}()
	for c.Stats().StampedeSuppressed < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-followerErr; !errors.Is(err, ErrLoaderPanic) {
		t.Fatalf("follower err = %v, want ErrLoaderPanic", err)
	}
	// The flight is gone: a fresh GetOrLoad runs its loader.
	v, err := c.GetOrLoad(context.Background(), "k", func(context.Context, string) (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("GetOrLoad after panic = (%d, %v), want (7, nil)", v, err)
	}
}

// TestConcurrentMixed hammers every policy with the full API from many
// goroutines; run under -race this is the shard-locking regression test.
func TestConcurrentMixed(t *testing.T) {
	for _, p := range []Policy{SIEVE, S3FIFO, LRU} {
		t.Run(p.String(), func(t *testing.T) {
			c := New[int, int](128, WithPolicy(p), WithTTL(2*time.Millisecond), WithSweepInterval(time.Millisecond))
			defer c.Close()
			const (
				workers = 8
				ops     = 3000
				keys    = 512
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					batchK := make([]int, 8)
					batchV := make([]int, 8)
					for i := 0; i < ops; i++ {
						k := rng.Intn(keys)
						switch rng.Intn(10) {
						case 0:
							c.Delete(k)
						case 1:
							c.SetTTL(k, i, time.Duration(rng.Intn(3))*time.Millisecond)
						case 2:
							c.GetOrLoad(context.Background(), k, func(_ context.Context, k int) (int, error) {
								return k * 2, nil
							})
						case 3:
							for j := range batchK {
								batchK[j] = rng.Intn(keys)
								batchV[j] = j
							}
							c.SetMany(batchK, batchV)
						case 4:
							for j := range batchK {
								batchK[j] = rng.Intn(keys)
							}
							c.GetMany(batchK)
						case 5:
							c.Set(k, i)
						default:
							if v, ok := c.Get(k); ok && v < 0 {
								t.Error("impossible value surfaced")
							}
						}
					}
				}(int64(w))
			}
			wg.Wait()
			if n := c.Len(); n > 128 {
				t.Fatalf("Len = %d, want <= capacity 128", n)
			}
			checkLaws(t, c)
		})
	}
}

// TestZeroAndOneCapacity exercises the degenerate sizes every policy must
// survive: capacity 1 means every insert evicts the resident entry.
func TestOneCapacity(t *testing.T) {
	for _, p := range []Policy{SIEVE, S3FIFO, LRU} {
		t.Run(p.String(), func(t *testing.T) {
			c := New[int, int](1, WithPolicy(p))
			for i := 0; i < 100; i++ {
				c.Set(i, i)
				if v, ok := c.Get(i); !ok || v != i {
					t.Fatalf("Get(%d) = (%d, %v) right after Set", i, v, ok)
				}
			}
			if n := c.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
		})
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

func ExampleCache() {
	c := NewS3FIFO[string, string](128, WithTTL(time.Minute))
	defer c.Close()

	c.Set("greeting", "hello")
	if v, ok := c.Get("greeting"); ok {
		fmt.Println(v)
	}

	v, _ := c.GetOrLoad(context.Background(), "answer",
		func(ctx context.Context, k string) (string, error) {
			return "42", nil // expensive origin fetch, done at most once
		})
	fmt.Println(v)
	// Output:
	// hello
	// 42
}
