package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// eccCache is the production-style baseline: redundancy blocks are cached
// in the L2 alongside data, tagged into a disjoint address space (RedTag).
// Redundancy locality is captured — at the price of L2 capacity contention
// with demand data — and redundancy writebacks are coalesced in the L2 the
// same way data writebacks are.
type eccCache struct {
	env *Env
	// pending holds the outstanding redundancy fetches by tagged address;
	// a fetch's flag marks it dirty (some merged request was a
	// write-allocate), so its block fills the L2 dirty.
	pending FetchTable

	stL2Hits        stats.Handle
	stMerged        stats.Handle
	stReadsDRAM     stats.Handle
	stRedWritebacks stats.Handle
}

// NewECCCache builds the L2-redundancy-caching baseline.
func NewECCCache(env *Env) Scheme {
	return &eccCache{
		env:             env,
		stL2Hits:        env.Stats.Handle("red_l2_hits"),
		stMerged:        env.Stats.Handle("red_merged"),
		stReadsDRAM:     env.Stats.Handle("red_reads_dram"),
		stRedWritebacks: env.Stats.Handle("red_writebacks"),
	}
}

// Name identifies the scheme.
func (s *eccCache) Name() string { return "ecc-cache" }

// redReady delivers an arrival at join as soon as the redundancy block
// covering lineAddr is available: from an event at now on an L2 hit, or
// when the (possibly already outstanding) DRAM fetch returns. A writeback
// passes noJoin; its L2 hit still posts the (no-op) arrival event.
func (s *eccCache) redReady(now sim.Cycle, lineAddr uint64, markDirty bool, join int32) {
	env := s.env
	tagged := RedTag | env.Map.RedundancyAddr(lineAddr)
	if env.L2.Present(tagged) {
		s.stL2Hits.Inc()
		if markDirty {
			env.L2.MarkDirty(tagged)
		}
		env.ArriveAt(now, join)
		return
	}
	if f, ok := s.pending.Find(tagged); ok {
		s.stMerged.Inc()
		if markDirty {
			s.pending.SetFlag(f)
		}
		s.pending.Wait(f, join)
		return
	}
	f := s.pending.Start(tagged, markDirty)
	s.pending.Wait(f, join)
	s.stReadsDRAM.Inc()
	class := mem.Redundancy
	if markDirty {
		class = mem.RMW // a write-allocate fetch exists only to merge new checks
	}
	env.DRAM.Submit(now, mem.Request{
		Addr:  tagged &^ RedTag,
		Bytes: env.Map.Geometry().RedBlockBytes,
		Class: class,
		Done:  (*eccRedDone)(s),
		Arg:   uint64(f),
	})
}

// eccRedDone fills a fetched redundancy block (fetch slot a0) into the L2
// and releases the reads waiting on it.
type eccRedDone eccCache

func (h *eccRedDone) OnEvent(at sim.Cycle, a0, _ uint64) {
	s := (*eccCache)(h)
	f := int32(a0)
	tagged, dirty := s.pending.Take(f)
	s.env.L2.Insert(at, tagged, dirty)
	s.pending.Release(at, f, s.env)
}

// ReadMiss fetches the demanded sectors and waits for the redundancy block
// (L2 or DRAM), completing after decode.
func (s *eccCache) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	env := s.env
	geo := env.Map.Geometry()
	join := env.DecodeJoin(now, sectorCount(geo, mask)+1, lineAddr, done)
	env.readSectors(now, lineAddr, mask, class, join)
	s.redReady(now, lineAddr, false, join)
}

// Writeback writes dirty data sectors and folds the redundancy update into
// the cached block (allocating it if needed). Evicted dirty redundancy
// lines come back through this method carrying RedTag and are plain
// writes.
func (s *eccCache) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	env := s.env
	geo := env.Map.Geometry()
	if lineAddr&RedTag != 0 {
		base := lineAddr &^ RedTag
		for sec := 0; sec < geo.SectorsPerLine(); sec++ {
			if dirtyMask&(1<<sec) == 0 {
				continue
			}
			s.stRedWritebacks.Inc()
			env.DRAM.Submit(now, mem.Request{
				Addr:  base + uint64(sec*geo.SectorBytes),
				Write: true,
				Bytes: geo.SectorBytes,
				Class: mem.Redundancy,
			})
		}
		return
	}
	env.writeSectors(now, lineAddr, dirtyMask)
	s.redReady(now, lineAddr, true, noJoin)
}

// NeedsRMWFetch is true under ECC.
func (s *eccCache) NeedsRMWFetch() bool { return true }

// Drain has nothing controller-side to flush: dirty redundancy lives in
// the L2 and drains with the machine's cache flush.
func (s *eccCache) Drain(sim.Cycle) {}

var _ Scheme = (*eccCache)(nil)
