package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// SchemeSink observes controller-level events: every ReadMiss issued
// (with its completion), every Writeback, and the end-of-sim Drain. The
// gpu machine implements it once and fans the calls out to its attached
// consumers (the audit checker, the probe tracks).
type SchemeSink interface {
	// ReadMissIssued records a controller read and returns a token that
	// identifies it to ReadMissDone.
	ReadMissIssued(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class) uint64
	// ReadMissDone records the (exactly-once) completion at cycle at of
	// the read issued at cycle issued.
	ReadMissDone(issued, at sim.Cycle, token uint64)
	// WritebackIssued records a writeback handed to the controller.
	WritebackIssued(now sim.Cycle, lineAddr uint64, dirtyMask uint64)
	// DrainIssued records the end-of-sim drain call.
	DrainIssued(now sim.Cycle)
}

// WrapObserved decorates a scheme so every Scheme-interface call is
// reported to the sink before being forwarded. The wrapper preserves the
// inner scheme's ReconstructionObserver capability so predictor feedback
// keeps flowing when the scheme is CacheCraft.
//
// Only an observed machine (audit or probes attached) installs it. It
// keeps a pool of in-flight reads, each slot with a completion bound once
// when the slot is created, so an observed ReadMiss allocates nothing
// once the pool is warm.
func WrapObserved(s Scheme, sink SchemeSink) Scheme {
	o := &observedScheme{inner: s, sink: sink}
	if ro, ok := s.(ReconstructionObserver); ok {
		return &observedObserver{observedScheme: o, ro: ro}
	}
	return o
}

type observedScheme struct {
	inner Scheme
	sink  SchemeSink
	reads []observedRead
	free  []int32
}

// observedRead is one forwarded ReadMiss awaiting its completion.
type observedRead struct {
	issued sim.Cycle
	token  uint64
	// done is the caller's completion; fire is this slot's own, handed to
	// the inner scheme.
	done func(sim.Cycle)
	fire func(sim.Cycle)
}

func (o *observedScheme) Name() string { return o.inner.Name() }

func (o *observedScheme) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	token := o.sink.ReadMissIssued(now, lineAddr, mask, class)
	var i int32
	if k := len(o.free); k > 0 {
		i = o.free[k-1]
		o.free = o.free[:k-1]
	} else {
		i = int32(len(o.reads))
		o.reads = append(o.reads, observedRead{fire: func(at sim.Cycle) { o.complete(at, i) }})
	}
	r := &o.reads[i]
	r.issued, r.token, r.done = now, token, done
	o.inner.ReadMiss(now, lineAddr, mask, class, r.fire)
}

// complete reports read i's completion and calls the caller's done, after
// freeing the slot (done may issue the next read).
func (o *observedScheme) complete(at sim.Cycle, i int32) {
	r := o.reads[i]
	o.reads[i].done = nil
	o.free = append(o.free, i)
	o.sink.ReadMissDone(r.issued, at, r.token)
	r.done(at)
}

func (o *observedScheme) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	o.sink.WritebackIssued(now, lineAddr, dirtyMask)
	o.inner.Writeback(now, lineAddr, dirtyMask)
}

func (o *observedScheme) NeedsRMWFetch() bool { return o.inner.NeedsRMWFetch() }

func (o *observedScheme) Drain(now sim.Cycle) {
	o.sink.DrainIssued(now)
	o.inner.Drain(now)
}

// observedObserver adds ReconstructionObserver forwarding for schemes
// that implement it (CacheCraft).
type observedObserver struct {
	*observedScheme
	ro ReconstructionObserver
}

func (o *observedObserver) ReconstructedUse(addr uint64, used bool) {
	o.ro.ReconstructedUse(addr, used)
}

var (
	_ Scheme                 = (*observedScheme)(nil)
	_ Scheme                 = (*observedObserver)(nil)
	_ ReconstructionObserver = (*observedObserver)(nil)
)
