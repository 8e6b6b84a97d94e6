package sim

import "testing"

// countHandler is a trivial pooled-event handler for alloc accounting.
type countHandler struct{ n uint64 }

func (h *countHandler) OnEvent(_ Cycle, a0, _ uint64) { h.n += a0 }

// TestPostStepZeroAllocs pins the tentpole guarantee: once the record pool
// is warm, scheduling and running pooled handler events allocates nothing.
func TestPostStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	// Warm the pool and the overflow heap's backing array.
	for i := 0; i < 64; i++ {
		e.Post(e.Now()+Cycle(i%7), h, 1, 0)
		e.Post(e.Now()+2*wheelSpan, h, 1, 0)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Post(e.Now()+3, h, 1, 0)
		e.Post(e.Now()+1, h, 1, 0)
		e.Post(e.Now()+wheelSpan+100, h, 1, 0) // overflow path
		e.Step()
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Post/Step allocated %.1f times per run, want 0", allocs)
	}
	if h.n == 0 {
		t.Fatal("handler never ran")
	}
}

// TestAtReusesRecords checks that events posted through the tests'
// closure adapter recycle their records: under steady-state load the slab
// stops growing (the closure itself may allocate; the queue must not add
// to it).
func TestAtReusesRecords(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 32; i++ {
		at(e, e.Now()+1, func(Cycle) {})
	}
	for e.Step() {
	}
	slabLen := len(e.slab)
	for i := 0; i < 10000; i++ {
		at(e, e.Now()+1, func(Cycle) {})
		e.Step()
	}
	if len(e.slab) != slabLen {
		t.Fatalf("slab grew from %d to %d records under steady-state load", slabLen, len(e.slab))
	}
}
