package core

import (
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// nullL2 is an allocation-free CacheSide that holds nothing.
type nullL2 struct{}

func (nullL2) Present(uint64) bool                   { return false }
func (nullL2) Pending(uint64) bool                   { return false }
func (nullL2) Insert(sim.Cycle, uint64, bool)        {}
func (nullL2) InsertReconstructed(sim.Cycle, uint64) {}
func (nullL2) MarkDirty(uint64)                      {}

// TestCacheCraftRoundTripZeroAllocs pins CacheCraft's steady state: once
// its fetch tables, write buffer, RC and the engine and DRAM queues are
// warm, every controller path of a read miss and a writeback allocates
// nothing. Each round exercises a redundancy fetch with a merged second
// read, reconstruction with a demand miss merged into it, an RC hit, a
// write-buffer forward, a write-buffer overflow flush and the timeout
// flushes; the counters below prove each path ran.
func TestCacheCraftRoundTripZeroAllocs(t *testing.T) {
	env, eng, _ := testEnv(t)
	env.L2 = nullL2{}
	opt := DefaultOptions()
	opt.Predictor = false // reconstruct on every demand miss
	opt.RCSizeBytes = 1 << 10
	opt.WBufEntries = 2
	opt.WBufTimeout = 100
	c := New(env, opt)
	completed := 0
	done := func(sim.Cycle) { completed++ }
	round := 0
	run := func() {
		// Rotate over more granules than the 32-block RC holds, so each
		// round's first read of a granule misses the RC.
		base := uint64(round%64) * 8192
		round++
		now := eng.Now()
		c.ReadMiss(now, base, 0b1111, mem.Demand, done)     // fetches red, reconstructs line base+128
		c.ReadMiss(now, base+128, 0b1111, mem.Demand, done) // merges into both
		drain(eng)
		c.ReadMiss(eng.Now(), base, 0b0001, mem.Demand, done) // RC hit
		drain(eng)
		now = eng.Now()
		c.Writeback(now, base+1024, 0b1111)                  // buffered: half the granule known
		c.ReadMiss(now, base+1024, 0b0001, mem.Demand, done) // forwarded from the write buffer
		c.Writeback(now, base+2048, 0b0001)
		c.Writeback(now, base+3072, 0b0001) // third entry: overflow flushes the oldest
		drain(eng)                          // the rest time out
	}
	for i := 0; i < 128; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("steady-state round trip: %.1f allocs/run, want 0", allocs)
	}
	if want := 4 * (128 + 201); completed != want {
		t.Fatalf("completed %d reads, want %d", completed, want)
	}
	for _, name := range []string{"red_reads_dram", "red_merged", "reconstruct_sectors",
		"reconstruct_merged", "red_rc_hits", "red_wbuf_fwd", "red_wbuf_overflow", "red_wbuf_timeout"} {
		if env.Stats.Get(name) == 0 {
			t.Errorf("%s never counted: the round does not exercise its path", name)
		}
	}
}
