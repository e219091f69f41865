package reclaim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestRetireFreesUnprotected(t *testing.T) {
	d := NewHP()
	d.SetScanThreshold(4)
	h := newHandle(d, 1)
	defer h.Release()

	freed := 0
	for i := 0; i < 8; i++ {
		p := &struct{ x int }{x: i}
		h.Retire(p, func() { freed++ })
	}
	h.scan()
	if freed != 8 {
		t.Fatalf("freed = %d, want 8", freed)
	}
	if d.Reclaimed() != 8 || d.Pending() != 0 {
		t.Fatalf("stats = (%d reclaimed, %d pending)", d.Reclaimed(), d.Pending())
	}
}

func TestProtectedObjectSurvivesScan(t *testing.T) {
	d := NewHP()
	reader := newHandle(d, 1)
	writer := newHandle(d, 1)
	defer reader.Release()
	defer writer.Release()

	type node struct{ v int }
	var shared atomic.Pointer[node]
	obj := &node{v: 42}
	shared.Store(obj)

	// Reader protects the object.
	got := Load(reader, 0, &shared)
	if got != obj {
		t.Fatalf("Load returned %p, want %p", got, obj)
	}

	// Writer unlinks and retires it; scans must not free it.
	shared.Store(nil)
	var freed atomic.Bool
	writer.Retire(obj, func() { freed.Store(true) })
	for i := 0; i < 5; i++ {
		writer.scan()
	}
	if freed.Load() {
		t.Fatal("protected object was freed")
	}

	// Clearing the hazard releases it.
	reader.Exit()
	writer.scan()
	if !freed.Load() {
		t.Fatal("unprotected object not freed by scan")
	}
}

func TestProtectRevalidates(t *testing.T) {
	// If the source changes mid-protection, Load must converge on a
	// value that was re-validated, never returning a stale unpublished one.
	type node struct{ v int }
	d := NewHP()
	h := newHandle(d, 1)
	defer h.Release()

	var shared atomic.Pointer[node]
	shared.Store(&node{v: 1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				shared.Store(&node{v: 2})
			}
		}
	}()
	for i := 0; i < 10000; i++ {
		p := Load(h, 0, &shared)
		if p == nil {
			t.Fatal("nil from non-nil source")
		}
		if hp := h.slots[0].p.Load(); hp != (*byte)(unsafe.Pointer(p)) {
			t.Fatalf("slot holds %p, Load returned %p", hp, p)
		}
	}
	close(stop)
	wg.Wait()
}

func TestProtectNilSource(t *testing.T) {
	type node struct{ v int }
	d := NewHP()
	h := newHandle(d, 1)
	defer h.Release()
	h.Protect(0, &node{})
	var shared atomic.Pointer[node]
	if p := Load(h, 0, &shared); p != nil {
		t.Fatalf("Load of nil source = %v", p)
	}
	if v := h.slots[0].p.Load(); v != nil {
		t.Fatalf("slot not cleared on nil source: %v", v)
	}
}

func TestReleaseHandsOffRetired(t *testing.T) {
	d := NewHP()
	d.SetScanThreshold(1000) // prevent auto-scan
	blocker := newHandle(d, 1)
	leaver := newHandle(d, 1)

	type node struct{ v int }
	var shared atomic.Pointer[node]
	obj := &node{}
	shared.Store(obj)
	Load(blocker, 0, &shared)

	var freed atomic.Bool
	leaver.Retire(obj, func() { freed.Store(true) })
	leaver.Release() // obj still protected: must survive the handoff
	if freed.Load() {
		t.Fatal("protected object freed during handle release")
	}
	blocker.Exit()
	blocker.scan()
	d.Drain()
	if !freed.Load() {
		t.Fatal("object never freed after handoff")
	}
}

// TestReleaseRetireScanRace pins down the Release ownership rule: a
// handle's retire buffer is owner-only state, so Release must route its
// leftovers through the domain's orphan list, never append them into
// another live handle's buffer. The old code pushed leftovers into
// d.handles[0] — here the owner goroutine concurrently running
// Retire/Scan — which the race detector flags as a write-write race on
// the owner's retired slice.
func TestReleaseRetireScanRace(t *testing.T) {
	type node struct{ v int }
	d := NewHP()
	d.SetScanThreshold(4)

	owner := newHandle(d, 1) // registered first: the old code's handoff target
	protector := newHandle(d, 1)
	defer protector.Release()

	// A protected object makes every releasing handle leave leftovers.
	obj := &node{}
	var shared atomic.Pointer[node]
	shared.Store(obj)
	Load(protector, 0, &shared)

	stop := make(chan struct{})
	var ownerWG, churnWG sync.WaitGroup
	ownerWG.Add(1)
	go func() { // the owner races Retire/Scan on its own buffer
		defer ownerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := &node{}
			owner.Retire(p, func() {})
			owner.scan()
		}
	}()
	churnWG.Add(1)
	go func() { // churning handles release with protected leftovers
		defer churnWG.Done()
		for i := 0; i < 2000; i++ {
			h := newHandle(d, 1)
			h.Retire(obj, func() {})
			h.Release()
		}
	}()
	churnWG.Wait()
	close(stop)
	ownerWG.Wait()

	owner.Release()
	protector.Exit()
	d.Drain()
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain, want 0", d.Pending())
	}
	if d.Reclaimed() == 0 {
		t.Fatal("nothing reclaimed — scan never ran")
	}
}

// TestConcurrentStress: readers continuously protect the current head
// object and verify it is never freed while they hold it; writers swap and
// retire heads.
func TestConcurrentStress(t *testing.T) {
	type node struct {
		freed atomic.Bool
	}
	d := NewHP()
	d.SetScanThreshold(16)

	var shared atomic.Pointer[node]
	shared.Store(&node{})

	var (
		wwg, rwg sync.WaitGroup
		stop     = make(chan struct{})
	)
	readers := max(2, runtime.GOMAXPROCS(0)/2)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			h := newHandle(d, 1)
			defer h.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := Load(h, 0, &shared)
				if p == nil {
					continue
				}
				if p.freed.Load() {
					t.Error("reader holds a freed object")
					return
				}
				h.Exit()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			h := newHandle(d, 1)
			defer h.Release()
			for i := 0; i < 20000; i++ {
				old := shared.Swap(&node{})
				h.Retire(old, func() { old.freed.Store(true) })
			}
		}()
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	d.Drain()
	if d.Reclaimed() == 0 {
		t.Fatal("stress run reclaimed nothing — protocol inert")
	}
}

// newHandle issues a handle of d with k slots, typed for the tests that
// drive its scan directly.
func newHandle(d *HP, k int) *handle { return d.NewGuard(k).(*handle) }
