package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// FetchTable is a controller's set of in-flight DRAM fetches, keyed by
// address. A request that finds its address already in flight waits on
// that fetch instead of issuing another; each fetch keeps its waiting
// joins in arrival order. Fetch slots are pooled and keep their waiter
// slices' capacity, and the DRAM request carries the slot index, so the
// table allocates nothing once warm. The zero value is an empty table.
//
// A fetch's completion handler calls Take, which removes its address so
// later requests start a new fetch, then fills the block wherever the
// controller keeps it, then calls Release to hand the waiters their
// arrivals and free the slot.
type FetchTable struct {
	index   mem.AddrTable
	fetches []fetch
	free    []int32
}

type fetch struct {
	addr    uint64
	flag    bool
	waiters []int32 // join ids
}

// Find reports the in-flight fetch of addr, if any.
func (t *FetchTable) Find(addr uint64) (int32, bool) { return t.index.Get(addr) }

// Start records a new in-flight fetch of addr with no waiters, carrying
// flag for the controller (ecc-cache marks a write-allocate fetch whose
// block fills dirty). The caller passes the returned slot as its DRAM
// request's Arg.
func (t *FetchTable) Start(addr uint64, flag bool) int32 {
	var f int32
	if k := len(t.free); k > 0 {
		f = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		f = int32(len(t.fetches))
		t.fetches = append(t.fetches, fetch{})
	}
	ft := &t.fetches[f]
	ft.addr, ft.flag, ft.waiters = addr, flag, ft.waiters[:0]
	t.index.Put(addr, f)
	return f
}

// SetFlag sets fetch f's flag.
func (t *FetchTable) SetFlag(f int32) { t.fetches[f].flag = true }

// Wait appends join to fetch f's waiters (noJoin adds nothing).
func (t *FetchTable) Wait(f int32, join int32) {
	if join != noJoin {
		t.fetches[f].waiters = append(t.fetches[f].waiters, join)
	}
}

// Waiting reports whether any join waits on fetch f.
func (t *FetchTable) Waiting(f int32) bool { return len(t.fetches[f].waiters) > 0 }

// Take removes fetch f's address from the table and reports it with the
// fetch's flag. The slot stays allocated until Release.
func (t *FetchTable) Take(f int32) (addr uint64, flag bool) {
	ft := &t.fetches[f]
	t.index.Del(ft.addr)
	return ft.addr, ft.flag
}

// Release delivers one arrival to each of fetch f's waiters, in the order
// they started waiting, then frees the slot. An arrival can complete a
// join whose done re-enters the controller and starts or waits on other
// fetches, growing the slab, so the loop re-indexes the slot on every
// step and frees it only at the end.
func (t *FetchTable) Release(now sim.Cycle, f int32, env *Env) {
	for i := 0; i < len(t.fetches[f].waiters); i++ {
		env.arrive(now, t.fetches[f].waiters[i])
	}
	t.free = append(t.free, f)
}
