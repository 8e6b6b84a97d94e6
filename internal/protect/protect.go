// Package protect defines the memory-protection controller interface that
// sits between the L2 cache and DRAM, and implements the three baseline
// schemes the paper-style evaluation compares against:
//
//   - none: no protection; every miss is a plain data fetch.
//   - inline-naive: inline ECC with no redundancy caching; every miss pays
//     a second DRAM access for the redundancy block, and every writeback
//     pays a redundancy read-modify-write.
//   - ecc-cache: the production-style baseline; redundancy blocks are
//     cached in the L2 itself, trading L2 capacity for redundancy reuse.
//
// CacheCraft itself lives in internal/core and implements the same Scheme
// interface.
package protect

import (
	"math/bits"

	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// RedTag marks redundancy-block addresses in the cache hierarchy's address
// space so they can never collide with logical data addresses.
const RedTag uint64 = 1 << 62

// CacheSide is the controller's view of the L2: it can probe for and
// insert lines (redundancy blocks for the ecc-cache scheme, reconstructed
// sibling sectors for CacheCraft). Inserts are clean unless dirty is set;
// evictions triggered by inserts flow back to the controller as
// writebacks.
type CacheSide interface {
	// Present reports whether the sector holding addr is valid in the L2.
	Present(addr uint64) bool
	// Pending reports whether the sector is already being fetched.
	Pending(addr uint64) bool
	// Insert places a sector into the L2 (allocating its line as needed).
	Insert(now sim.Cycle, addr uint64, dirty bool)
	// InsertReconstructed places a clean sector into the L2 and tracks
	// whether it is referenced before eviction, reporting the outcome to a
	// scheme that implements ReconstructionObserver.
	InsertReconstructed(now sim.Cycle, addr uint64)
	// MarkDirty marks a present sector dirty; it must be present.
	MarkDirty(addr uint64)
}

// ReconstructionObserver is implemented by schemes (CacheCraft) that want
// per-sector feedback on whether reconstructed inserts were useful.
type ReconstructionObserver interface {
	// ReconstructedUse reports that the reconstructed sector at addr was
	// referenced before eviction (used) or evicted untouched (!used).
	ReconstructedUse(addr uint64, used bool)
}

// Env is everything a controller needs from the machine.
type Env struct {
	Eng   *sim.Engine
	DRAM  *dram.DRAM
	Map   layout.Mapper
	L2    CacheSide
	Stats *stats.Counters
	// DecodeLat is the ECC decode/verify latency added to protected reads.
	DecodeLat sim.Cycle
	// ErrorRatePPM injects deterministic correctable errors into protected
	// reads: roughly this many per million granule decodes flag a
	// corrected error, costing ErrorPenalty extra cycles and a scrub
	// write. Zero disables injection.
	ErrorRatePPM int
	// ErrorPenalty is the extra correction latency per flagged decode
	// (default 32 when zero and injection is enabled).
	ErrorPenalty sim.Cycle

	// joins is the pool of pending read completions (see join.go); the
	// zero value is an empty pool.
	joins    []join
	joinFree []int32
}

// errorAt deterministically decides whether the decode of the granule at
// lineAddr observes a correctable error (a hash in place of randomness so
// runs stay reproducible and schemes see identical error placement).
func (e *Env) errorAt(lineAddr uint64) bool {
	if e.ErrorRatePPM <= 0 {
		return false
	}
	h := e.Map.GranuleBase(lineAddr)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h%1_000_000 < uint64(e.ErrorRatePPM)
}

// Read submits a DRAM read of bytes at physical address addr whose
// completion arrives at join.
func (e *Env) Read(now sim.Cycle, addr uint64, bytes int, class mem.Class, join int32) {
	e.DRAM.Submit(now, mem.Request{
		Addr:  addr,
		Bytes: bytes,
		Class: class,
		Done:  (*joinEvent)(e),
		Arg:   uint64(uint32(join)),
	})
}

// RedundancyRMW read-modify-writes the redundancy block at physical
// address redAddr: it reads the old block and, DecodeLat after the read
// returns, writes the merged block back.
func (e *Env) RedundancyRMW(now sim.Cycle, redAddr uint64) {
	e.DRAM.Submit(now, mem.Request{
		Addr:  redAddr,
		Bytes: e.Map.Geometry().RedBlockBytes,
		Class: mem.RMW,
		Done:  (*rmwEvent)(e),
		Arg:   redAddr,
	})
}

// rmwEvent writes back a redundancy block (a0) whose RMW read returned.
type rmwEvent Env

func (h *rmwEvent) OnEvent(at sim.Cycle, a0, _ uint64) {
	e := (*Env)(h)
	e.DRAM.Submit(at+e.DecodeLat, mem.Request{
		Addr:  a0,
		Write: true,
		Bytes: e.Map.Geometry().RedBlockBytes,
		Class: mem.Redundancy,
	})
}

// readSectors reads the sectors of the line at lineAddr that mask
// selects, each arriving at join.
func (e *Env) readSectors(now sim.Cycle, lineAddr, mask uint64, class mem.Class, join int32) {
	geo := e.Map.Geometry()
	for sec := 0; sec < geo.SectorsPerLine(); sec++ {
		if mask&(1<<sec) != 0 {
			e.Read(now, e.Map.DataPhys(lineAddr+uint64(sec*geo.SectorBytes)), geo.SectorBytes, class, join)
		}
	}
}

// writeSectors writes back the sectors of the data line at lineAddr
// (RedTag stripped) that mask selects.
func (e *Env) writeSectors(now sim.Cycle, lineAddr, mask uint64) {
	geo := e.Map.Geometry()
	base := lineAddr &^ RedTag
	for sec := 0; sec < geo.SectorsPerLine(); sec++ {
		if mask&(1<<sec) != 0 {
			e.DRAM.Submit(now, mem.Request{
				Addr:  e.Map.DataPhys(base + uint64(sec*geo.SectorBytes)),
				Write: true,
				Bytes: geo.SectorBytes,
				Class: mem.Writeback,
			})
		}
	}
}

// Scheme is a memory-protection controller. Line addresses are logical
// data addresses unless they carry RedTag.
type Scheme interface {
	// Name identifies the scheme in tables.
	Name() string
	// ReadMiss fetches the sectors in mask of the 128B line at lineAddr.
	// class is mem.Demand for ordinary misses or mem.RMW for
	// fetch-before-partial-write. done runs exactly once, when the
	// requested sectors are ready to fill (after ECC verification). The
	// scheme must not keep done after calling it: the L2 bank hands out
	// the same func value again for a later miss.
	ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle))
	// Writeback retires dirty sectors of an evicted line (fire and
	// forget). Redundancy lines carry RedTag.
	Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64)
	// NeedsRMWFetch reports whether a partial-sector store must fetch the
	// old sector contents first (true whenever ECC disables DRAM write
	// masking).
	NeedsRMWFetch() bool
	// Drain flushes any internal write buffers at end of simulation.
	Drain(now sim.Cycle)
}

// Factory builds a scheme against a machine environment.
type Factory func(env *Env) Scheme

// sectorCount reports how many in-line sectors mask selects.
func sectorCount(geo layout.Geometry, mask uint64) int {
	return bits.OnesCount64(mask & (uint64(1)<<geo.SectorsPerLine() - 1))
}
