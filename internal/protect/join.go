package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// A join is one pending ReadMiss completion in the Env's pool. It counts
// down arrivals (demand sectors returning from DRAM, the redundancy block
// becoming available), then runs the ECC decode of its granule when it
// was opened with DecodeJoin, then calls the scheme's done. Joins travel
// through DRAM requests and engine events by id, so a read miss builds
// no closure and, once the pool is warm, allocates nothing.
type join struct {
	left     int32
	decode   bool
	lineAddr uint64
	// done is the ReadMiss completion, held until the join fires.
	done func(sim.Cycle)
}

// noJoin is the join id of a redundancy request nobody waits on
// (ecc-cache's write-allocate of a block). An arrival for it is a no-op,
// but a posted one is still an engine event.
const noJoin int32 = -1

// Kinds of join event, in a1 of the engine record. A DRAM completion
// posts a1 = 0, so arrive must be zero.
const (
	joinArrive  = 0
	joinDecoded = 1
)

// joinEvent delivers a join's arrivals and its decode completion.
type joinEvent Env

func (h *joinEvent) OnEvent(now sim.Cycle, a0, a1 uint64) {
	e := (*Env)(h)
	id := int32(uint32(a0))
	if a1 == joinDecoded {
		e.fire(now, id)
		return
	}
	e.arrive(now, id)
}

// Join opens a join that calls done once n arrivals have been observed.
// With n zero it completes through an arrival posted for now, so done
// still runs from the event queue, never inside the caller.
func (e *Env) Join(now sim.Cycle, n int, done func(sim.Cycle)) int32 {
	return e.openJoin(now, n, false, 0, done)
}

// DecodeJoin is Join with the ECC decode of lineAddr's granule between
// the last arrival and done: the base decode latency, plus — when error
// injection marks the granule — a correction penalty and a scrub write of
// the corrected sector. A decode of zero latency calls done inline from
// the last arrival. Routing it through the event queue would not cost
// cycles, but it would reorder the completion behind other events already
// scheduled for this cycle, perturbing DRAM arbitration: a zero-cost
// decode must be a true no-op, indistinguishable from no decode stage at
// all.
func (e *Env) DecodeJoin(now sim.Cycle, n int, lineAddr uint64, done func(sim.Cycle)) int32 {
	return e.openJoin(now, n, true, lineAddr, done)
}

func (e *Env) openJoin(now sim.Cycle, n int, decode bool, lineAddr uint64, done func(sim.Cycle)) int32 {
	var id int32
	if k := len(e.joinFree); k > 0 {
		id = e.joinFree[k-1]
		e.joinFree = e.joinFree[:k-1]
	} else {
		id = int32(len(e.joins))
		e.joins = append(e.joins, join{})
	}
	left := int32(n)
	if n == 0 {
		left = 1
	}
	e.joins[id] = join{left: left, decode: decode, lineAddr: lineAddr, done: done}
	if n == 0 {
		e.ArriveAt(now, id)
	}
	return id
}

// ArriveAt posts one arrival at join id for cycle at.
func (e *Env) ArriveAt(at sim.Cycle, id int32) {
	e.Eng.Post(at, (*joinEvent)(e), uint64(uint32(id)), joinArrive)
}

// arrive records one arrival at join id now. The last arrival completes
// the join synchronously: it calls done, or starts the decode.
func (e *Env) arrive(now sim.Cycle, id int32) {
	if id == noJoin {
		return
	}
	j := &e.joins[id]
	if j.left--; j.left > 0 {
		return
	}
	if !j.decode {
		e.fire(now, id)
		return
	}
	lat := e.DecodeLat
	if lineAddr := j.lineAddr; e.errorAt(lineAddr) {
		penalty := e.ErrorPenalty
		if penalty == 0 {
			penalty = 32
		}
		lat += penalty
		e.Stats.Inc("corrected_errors")
		e.Stats.Inc("scrub_writes")
		e.DRAM.Submit(now, mem.Request{
			Addr:  e.Map.DataPhys(e.Map.GranuleBase(lineAddr)),
			Write: true,
			Bytes: e.Map.Geometry().SectorBytes,
			Class: mem.Writeback,
		})
	}
	if lat == 0 {
		e.fire(now, id)
		return
	}
	e.Eng.Post(now+lat, (*joinEvent)(e), uint64(uint32(id)), joinDecoded)
}

// fire frees join id and then calls its done: done may re-enter the
// scheme and open new joins, which can reuse the slot.
func (e *Env) fire(now sim.Cycle, id int32) {
	done := e.joins[id].done
	e.joins[id] = join{}
	e.joinFree = append(e.joinFree, id)
	done(now)
}
