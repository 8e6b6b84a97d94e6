package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The host's speed drifts by a third and more over minutes on a shared
// machine, and both wall and thread CPU time move with it, so timings
// taken minutes apart differ by more than any change worth catching.
// A timed run therefore also times a fixed reference kernel, in short
// samples taken between the measured items (cells, set-up batches,
// cold requests and blocks of repeat requests of a service pass), and
// reports every time scaled to reference speed:
//
//	scaled = measured × refNominal / median(samples just before and just after the item)
//
// Samples next to the item track the host's speed while it ran far
// better than one factor for the whole run does. A short item takes
// a single sample after it, so its median reaches back to the last
// refWindow samples of the run, to keep one sample's noise out.
//
// The kernel is a miniature of the simulator's hot path (an event heap
// of closures and address-keyed maps of resident lines and outstanding
// misses, allocating as it goes), so that it slows down with the host
// much as the simulator does; contention that slows one more than the
// other still shows in the figures. It does not use the simulator's
// code, so no change to the simulator moves it. Changing the kernel,
// refNominal or the sampling makes earlier results incomparable.

// refNominal is the reference kernel's time on a quiet development host
// (see README.md); scaled times are seconds at that speed.
const refNominal = 25 * time.Millisecond

// refSteps is how many accesses one reference sample models.
const refSteps = 18000

// refShare is the share of the measured time spent on reference samples
// after each measured item; refMinSamples and refMaxSamples bound their
// number. refWindow is the fewest samples a factor is the median of,
// once the run has taken that many.
const (
	refShare      = 0.15
	refMinSamples = 1
	refMaxSamples = 40
	refWindow     = 8
)

// hostClock collects the reference samples of one run. A nil
// hostClock takes none and scales nothing.
type hostClock struct {
	samples []float64 // seconds per reference sample, all of the run
	last    []float64 // the latest batch
}

// span takes reference samples after a measured item that took took,
// and returns the host's slowness while it ran: the median of the
// samples taken just before it (the previous batch) and just after it,
// and of earlier ones while there are fewer than refWindow, over
// refNominal. 1.25 means the reference ran 25% slower than refNominal.
// Divide the item's times by it.
//
// A batch is worth refShare of took, within bounds. A garbage
// collection before each sample starts every one from the same heap,
// and one after the last keeps their garbage out of the next item.
func (h *hostClock) span(took time.Duration) float64 {
	if h == nil {
		return 1
	}
	n := int(refShare * float64(took) / float64(refNominal))
	n = max(refMinSamples, min(refMaxSamples, n))
	before := len(h.last)
	h.last = nil
	for i := 0; i < n; i++ {
		runtime.GC()
		h.last = append(h.last, refKernel(refSteps).Seconds())
	}
	runtime.GC()
	h.samples = append(h.samples, h.last...)
	around := min(len(h.samples), max(refWindow, before+n))
	return median(h.samples[len(h.samples)-around:]) / refNominal.Seconds()
}

// factor is the host's slowness over the whole run, for the log.
func (h *hostClock) factor() float64 {
	return median(h.samples) / refNominal.Seconds()
}

// scale divides a duration by a host factor.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) / f)
}

// refEvent is one event of the reference kernel.
type refEvent struct {
	at uint64
	id uint32
	fn func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].id < q[j].id)
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refLine is one resident line of the reference kernel's cache.
type refLine struct {
	tag   uint64
	dirty bool
	lru   uint64
}

// refSink keeps the kernel's result live.
var refSink uint64

// refKernel models steps accesses, half streaming and half scattered,
// one in eight a write, through a cache of refLines resident lines kept
// in an address-keyed map and evicted oldest first, with a map of outstanding misses and a queue
// of closure events, and returns how long that took. Its work is fixed.
func refKernel(steps int) time.Duration {
	start := time.Now()
	const refLines = 1 << 15
	var (
		resident  = make(map[uint64]*refLine)
		fifo      []uint64 // resident lines, oldest first
		misses    = map[uint64][]uint32{}
		q         refQueue
		now       uint64
		id        uint32
		hit, miss uint64
		x         uint64 = 0x9E3779B97F4A7C15
	)
	access := func(addr uint64, write bool) {
		ln := addr >> 5
		if l, ok := resident[ln]; ok {
			l.lru = now
			l.dirty = l.dirty || write
			hit++
			return
		}
		miss++
		if w, ok := misses[ln]; ok {
			misses[ln] = append(w, id)
			return
		}
		misses[ln] = nil
		id++
		heap.Push(&q, refEvent{at: now + 100 + addr%128, id: id, fn: func() {
			if len(fifo) == refLines {
				delete(resident, fifo[0])
				fifo = fifo[1:]
			}
			fifo = append(fifo, ln)
			resident[ln] = &refLine{tag: ln, dirty: write, lru: now}
			delete(misses, ln)
		}})
	}
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % (1 << 26)
		if i%2 != 0 {
			addr = uint64(i*32) % (1 << 24)
		}
		id++
		a, w := addr, x&7 == 0
		heap.Push(&q, refEvent{at: now + x%16, id: id, fn: func() { access(a, w) }})
		for len(q) > 64 {
			e := heap.Pop(&q).(refEvent)
			now = e.at
			e.fn()
		}
	}
	for len(q) > 0 {
		e := heap.Pop(&q).(refEvent)
		now = e.at
		e.fn()
	}
	refSink += hit + miss
	return time.Since(start)
}
