package reclaim

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/internal/pad"
)

// defaultScanThreshold is how many retirements a guard buffers before
// scanning. Michael's analysis wants R = H·(1+Θ(1)) with H total slots;
// a fixed multiple of typical slot counts works for the experiments here.
const defaultScanThreshold = 64

// HP is the hazard-pointer domain (Michael, "Hazard Pointers: Safe Memory
// Reclamation for Lock-Free Objects", TPDS 2004). Its guards are handles
// that publish each shared pointer in a slot before dereferencing it and
// revalidate the source (the Load helper packages the dance); Retire
// defers the free callback until a scan finds no slot naming the object.
//
// Compared with EBR the per-read cost is higher — a publication store plus
// a revalidating reload on every pointer — but pending garbage stays
// bounded even when readers stall: a stalled guard pins at most its own
// slots' objects, never the whole domain's retire stream.
type HP struct {
	mu sync.Mutex
	// slots holds every live handle's hazard slots. Scans snapshot the
	// slice header under mu and iterate outside it, which is safe under
	// two rules every mutation must keep: NewGuard only appends (it may
	// grow a shared backing array, but only at indices at or past every
	// snapshot's length, which scanners never read), and any other
	// mutation — like Release dropping a handle's slots — must install a
	// rebuilt slice, never write below a snapshot's length in place.
	slots    []*slot
	orphaned []retiredObject // retired objects of released handles

	scanThreshold int
	reclaimed     atomic.Int64
	pending       atomic.Int64
}

// NewHP returns a fresh hazard-pointer domain.
func NewHP() *HP {
	return &HP{scanThreshold: defaultScanThreshold}
}

// SetScanThreshold overrides how many retirements a guard buffers before
// scanning (default 64). Tests use 1-4 to force reclamation inside tiny
// windows. Call before guards retire.
func (h *HP) SetScanThreshold(n int) { h.scanThreshold = max(n, 1) }

// NewGuard registers a handle with the given number of hazard slots (at
// least one; most algorithms need 1–3).
func (h *HP) NewGuard(slots int) Guard {
	hd := &handle{d: h, slots: make([]*slot, max(slots, 1))}
	for i := range hd.slots {
		hd.slots[i] = &slot{}
	}
	h.mu.Lock()
	h.slots = append(h.slots, hd.slots...)
	h.mu.Unlock()
	return hd
}

func (h *HP) Reclaimed() int64 { return h.reclaimed.Load() }
func (h *HP) Pending() int64   { return h.pending.Load() }
func (h *HP) Deferred() bool   { return true }
func (h *HP) Name() string     { return "hp" }

func (h *HP) Gauges(emit func(string, float64)) error { return gauges(h, emit) }

// Drain scans the orphaned retire list of released guards; safe to call
// at any time and typically used at structure teardown.
func (h *HP) Drain() { h.scan(nil) }

// scan frees every object in own and in the domain's orphan list that no
// hazard slot names, and returns own's survivors; orphan survivors go back
// to the domain (they belong to no handle). Adopting the orphans here lets
// ordinary retire traffic reclaim them instead of waiting for a Drain.
func (h *HP) scan(own []retiredObject) []retiredObject {
	// Snapshot all hazard slots and steal any orphans under the same
	// lock; bail out first when there is nothing to reclaim (the common
	// case for the final scan of an empty handle being released).
	h.mu.Lock()
	if len(own) == 0 && len(h.orphaned) == 0 {
		h.mu.Unlock()
		return own
	}
	slots := h.slots
	orphans := h.orphaned
	h.orphaned = nil
	h.mu.Unlock()
	protected := make(map[*byte]struct{}, len(slots))
	for _, s := range slots {
		if v := s.p.Load(); v != nil {
			protected[v] = struct{}{}
		}
	}

	own, freed := freeUnprotected(own, protected)
	orphans, n := freeUnprotected(orphans, protected)
	freed += n
	if len(orphans) > 0 {
		h.mu.Lock()
		h.orphaned = append(h.orphaned, orphans...)
		h.mu.Unlock()
	}
	if freed > 0 {
		h.reclaimed.Add(int64(freed))
		h.pending.Add(int64(-freed))
	}
	return own
}

// freeUnprotected runs the free callback of every entry of rs that
// protected does not name and compacts the survivors in place, returning
// them with the number freed.
func freeUnprotected(rs []retiredObject, protected map[*byte]struct{}) ([]retiredObject, int) {
	kept := rs[:0]
	for _, r := range rs {
		if _, isProtected := protected[dataPtr(r.ptr)]; isProtected {
			kept = append(kept, r)
			continue
		}
		r.free()
	}
	// Zero the tail so freed entries do not pin their objects.
	clear(rs[len(kept):])
	return kept, len(rs) - len(kept)
}

// slot is a single hazard pointer: it names at most one object as
// unsafe-to-free. Writing is owner-only; scanning reads it from any
// goroutine.
//
// Hazard equality is pointer identity, so the slot stores the raw address
// of the protected object rather than a boxed interface: publishing is a
// single atomic pointer store with no allocation — this is the per-read
// cost F12 measures, and boxing on every Protect would swamp it with GC
// traffic. The stored address points at the object's allocation base, so
// it also keeps the object GC-reachable on its own.
type slot struct {
	p atomic.Pointer[byte]
	_ pad.CacheLinePad
}

// dataPtr extracts the data word of an interface value — the object's
// address for the pointer-shaped values the protocol works with. Retire
// and Protect must be handed the same pointer value for identity to hold.
func dataPtr(v any) *byte {
	if v == nil {
		return nil
	}
	return (*byte)((*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1])
}

type retiredObject struct {
	ptr  any
	free func()
}

// handle is one goroutine's set of hazard slots plus its retire buffer:
// the HP domain's Guard. Methods are owner-only.
type handle struct {
	d       *HP
	slots   []*slot
	retired []retiredObject
}

func (hd *handle) Enter() {}

// Exit clears every slot so retired objects this guard was protecting
// become reclaimable by the next scan.
func (hd *handle) Exit() {
	for _, s := range hd.slots {
		s.p.Store(nil)
	}
}

// Protect publishes p in the i'th hazard slot (clearing it when p is nil).
// It does not revalidate the source; Load does.
func (hd *handle) Protect(i int, p any) { hd.slots[i].p.Store(dataPtr(p)) }
func (hd *handle) Protects() bool       { return true }

// Retire schedules free to run once no hazard slot protects ptr. ptr must
// be the same value (same pointer) readers publish via Protect.
func (hd *handle) Retire(ptr any, free func()) {
	hd.retired = append(hd.retired, retiredObject{ptr: ptr, free: free})
	hd.d.pending.Add(1)
	if len(hd.retired) >= hd.d.scanThreshold {
		hd.scan()
	}
}

// scan frees the handle's unprotected retirements, and adopts the
// domain's orphans while it is at it.
func (hd *handle) scan() { hd.retired = hd.d.scan(hd.retired) }

// Release clears the handle's slots and hands its remaining retired
// objects to the domain-wide orphan list, reclaimed by any later handle's
// scan or by Drain. The leftovers must never be pushed into another live
// handle's retire buffer: that buffer is owner-only state, and the owner
// may be running Retire or its scan concurrently.
func (hd *handle) Release() {
	hd.Exit()
	hd.scan()
	d := hd.d
	d.mu.Lock()
	// Drop the handle's (cleared) slots from the scan set so scan cost
	// tracks live handles, not handles ever issued. Rebuild rather than
	// mutate: snapshots taken by in-flight scans keep the old array.
	mine := make(map[*slot]bool, len(hd.slots))
	for _, s := range hd.slots {
		mine[s] = true
	}
	kept := make([]*slot, 0, len(d.slots)-len(hd.slots))
	for _, s := range d.slots {
		if !mine[s] {
			kept = append(kept, s)
		}
	}
	d.slots = kept
	d.orphaned = append(d.orphaned, hd.retired...)
	hd.retired = nil
	d.mu.Unlock()
}
