package protect

import (
	"testing"

	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// fakeL2 is a minimal CacheSide for controller unit tests.
type fakeL2 struct {
	present map[uint64]bool
	dirty   map[uint64]bool
	inserts []uint64
	recon   []uint64
}

func newFakeL2() *fakeL2 {
	return &fakeL2{present: map[uint64]bool{}, dirty: map[uint64]bool{}}
}

func (f *fakeL2) Present(addr uint64) bool { return f.present[addr] }
func (f *fakeL2) Pending(addr uint64) bool { return false }
func (f *fakeL2) Insert(now sim.Cycle, addr uint64, dirty bool) {
	f.present[addr] = true
	if dirty {
		f.dirty[addr] = true
	}
	f.inserts = append(f.inserts, addr)
}
func (f *fakeL2) InsertReconstructed(now sim.Cycle, addr uint64) {
	f.Insert(now, addr, false)
	f.recon = append(f.recon, addr)
}
func (f *fakeL2) MarkDirty(addr uint64) { f.dirty[addr] = true }

func testEnv(t *testing.T) (*Env, *sim.Engine, *fakeL2) {
	t.Helper()
	eng := sim.NewEngine()
	mapper, err := layout.NewLinearMapper(64<<20, layout.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	l2 := newFakeL2()
	cfg := dram.DefaultConfig()
	cfg.Channels = 2
	env := &Env{
		Eng:       eng,
		DRAM:      dram.New(eng, cfg),
		Map:       mapper,
		L2:        l2,
		Stats:     stats.NewCounters(),
		DecodeLat: 8,
	}
	return env, eng, l2
}

func drain(eng *sim.Engine) { eng.Run(1 << 30) }

func TestNoneReadFetchesOnlyDemand(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewNone(env)
	done := false
	s.ReadMiss(0, 0, 0b0011, mem.Demand, func(sim.Cycle) { done = true })
	drain(eng)
	if !done {
		t.Fatal("read never completed")
	}
	if env.DRAM.Stats.Get("bytes_demand") != 64 {
		t.Fatalf("demand bytes = %d, want 64", env.DRAM.Stats.Get("bytes_demand"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 0 {
		t.Fatal("none must not fetch redundancy")
	}
	if s.NeedsRMWFetch() {
		t.Fatal("none must not need RMW fetches")
	}
}

func TestNoneWritebackWritesDirtySectors(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewNone(env)
	s.Writeback(0, 0, 0b1010)
	drain(eng)
	if env.DRAM.Stats.Get("bytes_writeback") != 64 {
		t.Fatalf("writeback bytes = %d", env.DRAM.Stats.Get("bytes_writeback"))
	}
}

func TestInlineNaiveReadAddsRedundancy(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewInlineNaive(env)
	var doneAt sim.Cycle
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(at sim.Cycle) { doneAt = at })
	drain(eng)
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	if env.DRAM.Stats.Get("bytes_demand") != 32 {
		t.Fatalf("demand bytes = %d", env.DRAM.Stats.Get("bytes_demand"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 32 {
		t.Fatalf("redundancy bytes = %d, want one block", env.DRAM.Stats.Get("bytes_redundancy"))
	}
	if !s.NeedsRMWFetch() {
		t.Fatal("inline ECC must need RMW fetches")
	}
}

func TestInlineNaiveDecodeLatencyApplied(t *testing.T) {
	env, eng, _ := testEnv(t)
	naive := NewInlineNaive(env)
	var naiveDone sim.Cycle
	naive.ReadMiss(0, 0, 1, mem.Demand, func(at sim.Cycle) { naiveDone = at })
	drain(eng)

	env2, eng2, _ := testEnv(t)
	none := NewNone(env2)
	var noneDone sim.Cycle
	none.ReadMiss(0, 0, 1, mem.Demand, func(at sim.Cycle) { noneDone = at })
	drain(eng2)

	if naiveDone <= noneDone {
		t.Fatalf("protected read (%d) must be slower than unprotected (%d)", naiveDone, noneDone)
	}
}

func TestInlineNaiveWritebackDoesRMW(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewInlineNaive(env)
	s.Writeback(0, 0, 0b0001)
	drain(eng)
	if env.Stats.Get("red_rmw") != 1 {
		t.Fatalf("rmw count = %d", env.Stats.Get("red_rmw"))
	}
	if env.DRAM.Stats.Get("bytes_rmw") != 32 {
		t.Fatalf("rmw read bytes = %d", env.DRAM.Stats.Get("bytes_rmw"))
	}
	// Data write + red write.
	if env.DRAM.Stats.Get("bytes_written") != 64 {
		t.Fatalf("written bytes = %d, want data+red", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestECCCacheHitAvoidsRedundancyFetch(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	l2.present[tagged] = true

	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	if env.DRAM.Stats.Get("bytes_redundancy") != 0 {
		t.Fatal("redundancy fetched despite L2 hit")
	}
	if env.Stats.Get("red_l2_hits") != 1 {
		t.Fatalf("red_l2_hits = %d", env.Stats.Get("red_l2_hits"))
	}
}

func TestECCCacheMissInsertsIntoL2(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	if !l2.present[tagged] {
		t.Fatal("redundancy block not inserted into L2")
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 32 {
		t.Fatalf("redundancy bytes = %d", env.DRAM.Stats.Get("bytes_redundancy"))
	}
}

func TestECCCacheConcurrentMissesMerge(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewECCCache(env)
	// Two misses in the same granule share one redundancy fetch.
	completions := 0
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) { completions++ })
	s.ReadMiss(0, 128, 0b0001, mem.Demand, func(sim.Cycle) { completions++ })
	drain(eng)
	if completions != 2 {
		t.Fatalf("completions = %d", completions)
	}
	if got := env.Stats.Get("red_reads_dram"); got != 1 {
		t.Fatalf("redundancy reads = %d, want 1 (merged)", got)
	}
	if env.Stats.Get("red_merged") != 1 {
		t.Fatalf("red_merged = %d", env.Stats.Get("red_merged"))
	}
}

func TestECCCacheWritebackMarksCachedRedDirty(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	l2.present[tagged] = true
	s.Writeback(0, 0, 0b0001)
	drain(eng)
	if !l2.dirty[tagged] {
		t.Fatal("cached redundancy not marked dirty")
	}
	// Only the data write goes to DRAM.
	if env.DRAM.Stats.Get("bytes_written") != 32 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestECCCacheWritebackAllocatesRedWhenAbsent(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	s.Writeback(0, 0, 0b0001)
	drain(eng)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	if !l2.present[tagged] || !l2.dirty[tagged] {
		t.Fatal("redundancy not write-allocated dirty")
	}
	if env.DRAM.Stats.Get("bytes_rmw") != 32 {
		t.Fatalf("rmw bytes = %d", env.DRAM.Stats.Get("bytes_rmw"))
	}
}

func TestECCCacheEvictedRedLineWritesBack(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewECCCache(env)
	redLine := RedTag | env.Map.RedundancyAddr(0) // treat as evicted dirty line
	s.Writeback(0, redLine-redLine%128, 0b0001)
	drain(eng)
	if env.Stats.Get("red_writebacks") != 1 {
		t.Fatalf("red writebacks = %d", env.Stats.Get("red_writebacks"))
	}
	if env.DRAM.Stats.Get("bytes_written") != 32 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestSchemeNames(t *testing.T) {
	env, _, _ := testEnv(t)
	if NewNone(env).Name() != "none" {
		t.Fatal("none name")
	}
	if NewInlineNaive(env).Name() != "inline-naive" {
		t.Fatal("inline name")
	}
	if NewECCCache(env).Name() != "ecc-cache" {
		t.Fatal("ecc-cache name")
	}
}

// TestJoinNZero: a join of zero arrivals completes from an event posted
// for now, never inline in the call that opens it.
func TestJoinNZero(t *testing.T) {
	env, eng, _ := testEnv(t)
	var ranAt sim.Cycle
	ran := false
	env.Join(5, 0, func(at sim.Cycle) { ran, ranAt = true, at })
	if ran || eng.Pending() != 1 {
		t.Fatalf("zero-arrival join: ran inline = %v, pending = %d, want a posted event", ran, eng.Pending())
	}
	drain(eng)
	if !ran || ranAt != 5 {
		t.Fatalf("zero-arrival join ran = %v at %d, want at 5", ran, ranAt)
	}
}

// TestJoinZeroLatencyDecodeFiresInline: with no decode latency the last
// arrival calls done itself, with nothing left on the event queue.
func TestJoinZeroLatencyDecodeFiresInline(t *testing.T) {
	env, eng, _ := testEnv(t)
	env.DecodeLat = 0
	ran := false
	id := env.DecodeJoin(10, 2, 0, func(sim.Cycle) { ran = true })
	env.arrive(10, id)
	if ran {
		t.Fatal("join fired before its last arrival")
	}
	env.arrive(10, id)
	if !ran || eng.Pending() != 0 {
		t.Fatalf("zero-latency decode: ran = %v, pending = %d, want inline", ran, eng.Pending())
	}
}

// TestFetchTableReleasesWaitersInOrder: waiters get their arrivals in the
// order they started waiting, and a released address can start afresh.
func TestFetchTableReleasesWaitersInOrder(t *testing.T) {
	env, eng, _ := testEnv(t)
	var ft FetchTable
	var order []int
	f := ft.Start(64, false)
	for i := 0; i < 3; i++ {
		i := i
		ft.Wait(f, env.Join(0, 1, func(sim.Cycle) { order = append(order, i) }))
	}
	ft.Wait(f, noJoin)
	if g, ok := ft.Find(64); !ok || g != f || !ft.Waiting(f) {
		t.Fatal("in-flight fetch not found")
	}
	if addr, flag := ft.Take(f); addr != 64 || flag {
		t.Fatalf("Take = %#x, %v", addr, flag)
	}
	if _, ok := ft.Find(64); ok {
		t.Fatal("taken fetch still indexed")
	}
	ft.Release(eng.Now(), f, env)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("release order = %v", order)
	}
	if g := ft.Start(64, true); g != f {
		t.Fatalf("released slot not reused: got %d, want %d", g, f)
	}
}

func TestErrorInjectionDeterministicAndRateBounded(t *testing.T) {
	env, _, _ := testEnv(t)
	env.ErrorRatePPM = 100000 // 10%
	hits := 0
	const granules = 2000
	for g := 0; g < granules; g++ {
		if env.errorAt(uint64(g) * 256) {
			hits++
		}
	}
	// Deterministic repeat.
	hits2 := 0
	for g := 0; g < granules; g++ {
		if env.errorAt(uint64(g) * 256) {
			hits2++
		}
	}
	if hits != hits2 {
		t.Fatal("error placement not deterministic")
	}
	frac := float64(hits) / granules
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("10%% rate produced %.3f", frac)
	}
	// Lines of the same granule agree.
	if env.errorAt(0) != env.errorAt(128) {
		t.Fatal("granule halves disagree on error placement")
	}
}

// TestFinishDecodeAddsPenaltyAndScrub: a join's decode of a flagged
// granule adds the correction penalty and issues the scrub write.
func TestFinishDecodeAddsPenaltyAndScrub(t *testing.T) {
	env, eng, _ := testEnv(t)
	env.ErrorRatePPM = 1_000_000 // every granule errors
	env.ErrorPenalty = 100
	var doneAt sim.Cycle
	env.arrive(10, env.DecodeJoin(10, 1, 0, func(at sim.Cycle) { doneAt = at }))
	drain(eng)
	if doneAt != 10+env.DecodeLat+100 {
		t.Fatalf("done at %d, want %d", doneAt, 10+env.DecodeLat+100)
	}
	if env.Stats.Get("corrected_errors") != 1 || env.Stats.Get("scrub_writes") != 1 {
		t.Fatalf("error accounting: %s", env.Stats)
	}
	if env.DRAM.Stats.Get("bytes_written") != 32 {
		t.Fatalf("scrub write bytes = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

// TestFinishDecodeCleanPath: a clean granule's decode costs DecodeLat.
func TestFinishDecodeCleanPath(t *testing.T) {
	env, eng, _ := testEnv(t)
	var doneAt sim.Cycle
	env.arrive(10, env.DecodeJoin(10, 1, 0, func(at sim.Cycle) { doneAt = at }))
	drain(eng)
	if doneAt != 10+env.DecodeLat {
		t.Fatalf("done at %d", doneAt)
	}
	if env.Stats.Get("corrected_errors") != 0 {
		t.Fatal("phantom error")
	}
}

func TestIdealReadPaysOnlyDemandAndDecode(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewIdeal(env)
	if s.Name() != "ideal" {
		t.Fatal("name")
	}
	var doneAt sim.Cycle
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(at sim.Cycle) { doneAt = at })
	drain(eng)
	if env.DRAM.Stats.Get("bytes_redundancy") != 0 {
		t.Fatal("ideal must not move redundancy")
	}
	// Compare against none: exactly DecodeLat slower.
	env2, eng2, _ := testEnv(t)
	var noneAt sim.Cycle
	NewNone(env2).ReadMiss(0, 0, 0b0001, mem.Demand, func(at sim.Cycle) { noneAt = at })
	drain(eng2)
	if doneAt != noneAt+env.DecodeLat {
		t.Fatalf("ideal done %d, none %d, want decode-only gap %d", doneAt, noneAt, env.DecodeLat)
	}
}

func TestIdealWritebackIsDataOnlyButKeepsRMWFetch(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewIdeal(env)
	s.Writeback(0, 0, 0b0011)
	drain(eng)
	if env.DRAM.Stats.Get("bytes_written") != 64 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy")+env.DRAM.Stats.Get("bytes_rmw") != 0 {
		t.Fatal("ideal wrote redundancy")
	}
	if !s.NeedsRMWFetch() {
		t.Fatal("even ideal cannot avoid fetch-on-partial-write under ECC")
	}
}
