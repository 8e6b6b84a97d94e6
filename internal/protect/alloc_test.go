package protect

import (
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// hitL2 is an allocation-free CacheSide: every sector is present when hit
// is set and absent otherwise, and inserts are dropped.
type hitL2 struct{ hit bool }

func (l *hitL2) Present(uint64) bool                   { return l.hit }
func (l *hitL2) Pending(uint64) bool                   { return false }
func (l *hitL2) Insert(sim.Cycle, uint64, bool)        {}
func (l *hitL2) InsertReconstructed(sim.Cycle, uint64) {}
func (l *hitL2) MarkDirty(uint64)                      {}

// TestReadMissRoundTripZeroAllocs pins the steady state of every baseline
// scheme: once the join pool, the fetch table, the engine and the DRAM
// queues are warm, read misses through DRAM and back — with merged
// redundancy fetches, L2 redundancy hits, writebacks with their
// redundancy read-modify-writes, and injected correctable errors —
// allocate nothing.
func TestReadMissRoundTripZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(*Env) Scheme
		ppm  int
	}{
		{"none", NewNone, 0},
		{"inline-naive", NewInlineNaive, 0},
		{"ecc-cache", NewECCCache, 0},
		{"ideal", NewIdeal, 0},
		{"inline-naive/errors", NewInlineNaive, 300_000},
		{"ecc-cache/errors", NewECCCache, 300_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, eng, _ := testEnv(t)
			l2 := &hitL2{}
			env.L2 = l2
			env.ErrorRatePPM = tc.ppm
			s := tc.new(env)
			completed := 0
			done := func(sim.Cycle) { completed++ }
			round := 0
			run := func() {
				now := eng.Now()
				base := uint64(round%16) * 4096
				l2.hit = round%2 == 1
				// Two lines of one granule share a redundancy block, so
				// ecc-cache merges the second fetch into the first.
				s.ReadMiss(now, base, 0b1111, mem.Demand, done)
				s.ReadMiss(now, base+128, 0b0011, mem.Demand, done)
				s.ReadMiss(now, base+1024, 0b0001, mem.RMW, done)
				s.ReadMiss(now, base+2048, 0, mem.Demand, done)
				s.Writeback(now, base+512, 0b0101)
				drain(eng)
				round++
			}
			for i := 0; i < 64; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Fatalf("steady-state round trip: %.1f allocs/run, want 0", allocs)
			}
			if want := 4 * (64 + 201); completed != want {
				t.Fatalf("completed %d reads, want %d", completed, want)
			}
		})
	}
}

// TestObservedReadMissZeroAllocs: the observing decorator's pooled read
// slots keep an observed miss allocation-free too.
func TestObservedReadMissZeroAllocs(t *testing.T) {
	env, eng, _ := testEnv(t)
	env.L2 = &hitL2{}
	s := WrapObserved(NewInlineNaive(env), nopSink{})
	completed := 0
	done := func(sim.Cycle) { completed++ }
	run := func() {
		s.ReadMiss(eng.Now(), 0, 0b1111, mem.Demand, done)
		s.ReadMiss(eng.Now(), 4096, 0b0001, mem.Demand, done)
		drain(eng)
	}
	for i := 0; i < 16; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("observed round trip: %.1f allocs/run, want 0", allocs)
	}
	if completed != 2*(16+201) {
		t.Fatalf("completed %d reads", completed)
	}
}

type nopSink struct{}

func (nopSink) ReadMissIssued(sim.Cycle, uint64, uint64, mem.Class) uint64 { return 0 }
func (nopSink) ReadMissDone(sim.Cycle, sim.Cycle, uint64)                  {}
func (nopSink) WritebackIssued(sim.Cycle, uint64, uint64)                  {}
func (nopSink) DrainIssued(sim.Cycle)                                      {}
