package reclaim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSequentialRetireAndCollect(t *testing.T) {
	c := NewEBR()
	p := register(c)
	defer p.Release()

	freed := 0
	for i := 0; i < 10; i++ {
		p.Retire(nil, func() { freed++ })
	}
	if got := c.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	// With no pins anywhere, three advances age everything out.
	for i := 0; i < 3; i++ {
		if !c.TryAdvance() {
			t.Fatalf("advance %d failed with no pinned participants", i)
		}
	}
	p.collect()
	if freed != 10 {
		t.Fatalf("freed = %d, want 10", freed)
	}
	if got := c.Reclaimed(); got != 10 {
		t.Fatalf("Reclaimed = %d, want 10", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

func TestPinBlocksAdvance(t *testing.T) {
	c := NewEBR()
	p := register(c)
	defer p.Release()

	p.Enter()
	e := c.global.Load()
	if !c.TryAdvance() {
		t.Fatal("first advance should succeed: pinned participant has seen the current epoch")
	}
	// p is still pinned at e; the next advance requires p to observe e+1.
	if c.TryAdvance() {
		t.Fatalf("advance to %d succeeded while a participant is pinned at %d", e+2, e)
	}
	p.Exit()
	if !c.TryAdvance() {
		t.Fatal("advance after Unpin failed")
	}
}

func TestRetiredNotFreedWhilePinnedReaderCanHoldIt(t *testing.T) {
	// The core safety invariant, tested mechanically: a reader pins and
	// "acquires" an object; a writer retires it; the object must not be
	// freed until after the reader unpins.
	c := NewEBR()
	reader := register(c)
	writer := register(c)
	defer reader.Release()
	defer writer.Release()

	var freed atomic.Bool
	reader.Enter()
	// Reader holds a conceptual reference from inside its section.
	writer.Retire(nil, func() { freed.Store(true) })

	// Writer tries hard to reclaim; the pinned reader must prevent it.
	for i := 0; i < 10; i++ {
		c.TryAdvance()
		writer.collect()
	}
	if freed.Load() {
		t.Fatal("object freed while a reader pinned at retire epoch was active")
	}
	reader.Exit()
	for i := 0; i < 3; i++ {
		c.TryAdvance()
	}
	writer.collect()
	if !freed.Load() {
		t.Fatal("object never freed after reader unpinned")
	}
}

func TestNestedPins(t *testing.T) {
	c := NewEBR()
	p := register(c)
	defer p.Release()

	p.Enter()
	p.Enter()
	p.Exit()
	// Still pinned: epoch must not advance twice.
	c.TryAdvance()
	if c.TryAdvance() {
		t.Fatal("epoch advanced twice under a nested pin")
	}
	p.Exit()
	if !c.TryAdvance() {
		t.Fatal("advance failed after full unpin")
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exit without Enter did not panic")
		}
	}()
	c := NewEBR()
	p := register(c)
	p.Exit()
}

func TestUnregisterInheritsBags(t *testing.T) {
	c := NewEBR()
	p := register(c)
	blocker := register(c)
	defer blocker.Release()

	var freed atomic.Int64
	blocker.Enter()
	for i := 0; i < 5; i++ {
		p.Retire(nil, func() { freed.Add(1) })
	}
	p.Release() // bags become orphans; blocker still pinned
	if freed.Load() != 0 {
		t.Fatal("orphan bags freed while blocker pinned at retire epoch")
	}
	blocker.Exit()
	for i := 0; i < 3; i++ {
		c.TryAdvance()
	}
	if got := freed.Load(); got != 5 {
		t.Fatalf("orphans freed = %d, want 5", got)
	}
}

func TestUnregisterPinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of pinned participant did not panic")
		}
	}()
	c := NewEBR()
	p := register(c)
	p.Enter()
	p.Release()
}

// TestLostAdvanceStillDrainsOrphans pins down the orphan-drain liveness
// rule: a TryAdvance whose CAS loses to a concurrent advance must still
// drain aged-out orphan bags, because the winner may have drained *before*
// those orphans were parked (a Release landing in between). The old
// code drained only on CAS success, so the bag lingered until the next
// successful advance — arbitrarily far away once callers go quiescent.
func TestLostAdvanceStillDrainsOrphans(t *testing.T) {
	c := NewEBR()
	for c.global.Load() < 5 {
		if !c.TryAdvance() {
			t.Fatal("setup advance failed with no participants")
		}
	}

	var freed atomic.Int64
	fired := false
	c.advanceTestHook = func() {
		if fired {
			return
		}
		fired = true
		// A concurrent winner advances 5→6 and drains (nothing aged yet)...
		if !c.global.CompareAndSwap(5, 6) {
			t.Fatal("hook: concurrent advance failed")
		}
		c.drainOrphans()
		// ...then a Release lands: a bag retired at epoch 4 is parked
		// as an orphan — already aged out (4+2 <= 6) but missed by the
		// winner's drain.
		c.mu.Lock()
		c.orphans[4] = append(c.orphans[4], func() { freed.Add(1) })
		c.mu.Unlock()
		c.orphanCount.Add(1)
		c.pending.Add(1)
	}

	if c.TryAdvance() {
		t.Fatal("TryAdvance CAS should have lost to the hooked concurrent advance")
	}
	if got := freed.Load(); got != 1 {
		t.Fatalf("aged-out orphan bag not drained after losing the advance race: freed = %d, want 1", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
}

// TestOrphanAgingUnderRacingAdvances churns unregistering participants
// (each parking an orphan bag) against goroutines hammering TryAdvance, so
// the CAS-lost drain path runs concurrently with winners' drains — the
// interleaving the race detector must see clean — and every orphan is
// eventually freed while the advancers are still racing.
func TestOrphanAgingUnderRacingAdvances(t *testing.T) {
	c := NewEBR()
	var freed atomic.Int64
	const total = 500

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.TryAdvance()
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		p := register(c)
		p.Retire(nil, func() { freed.Add(1) })
		p.Release()
	}
	// Liveness: with no pinned participants the racers keep advancing, and
	// every observation of an advance (won or lost) drains aged bags.
	for spin := 0; freed.Load() < total && spin < 1e8; spin++ {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := freed.Load(); got != total {
		t.Fatalf("orphans freed = %d, want %d", got, total)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

// TestConcurrentReclamationStress runs readers continuously pinning and
// "accessing" a shared object graph while writers unlink+retire objects.
// Invariant: no reader ever observes an object after its destructor ran.
func TestConcurrentReclamationStress(t *testing.T) {
	type object struct {
		freed atomic.Bool
	}
	c := NewEBR()

	// shared holds the currently linked object (like a head pointer).
	var shared atomic.Pointer[object]
	shared.Store(&object{})

	var (
		rwg, wwg sync.WaitGroup
		stop     = make(chan struct{})
		readers  = max(2, runtime.GOMAXPROCS(0)/2)
		writers  = 2
		observed atomic.Int64
	)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			p := register(c)
			defer p.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Enter()
				obj := shared.Load() // reachable ⇒ not yet reclaimable
				if obj.freed.Load() {
					t.Error("reader reached a freed object")
					p.Exit()
					return
				}
				observed.Add(1)
				p.Exit()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			p := register(c)
			defer p.Release()
			for i := 0; i < 20000; i++ {
				old := shared.Swap(&object{}) // unlink
				p.Retire(nil, func() { old.freed.Store(true) })
			}
		}()
	}
	wwg.Wait()  // writers finish first
	close(stop) // then release the readers
	rwg.Wait()

	if t.Failed() {
		return
	}
	if c.Reclaimed() == 0 {
		t.Fatal("stress run reclaimed nothing — protocol inert")
	}
	if observed.Load() == 0 {
		t.Fatal("readers never ran")
	}
}

// register issues a participant of e, typed for the tests that drive its
// unexported collect.
func register(e *EBR) *participant { return e.NewGuard(0).(*participant) }
