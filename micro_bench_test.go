// Micro-benchmarks for the substrate hot paths: codec throughput, cache
// lookup cost, DRAM scheduling, and end-to-end simulation rate. These are
// conventional testing.B benchmarks (per-op timing), unlike the
// experiment harness in bench_test.go.
package cachecraft

import (
	"math/rand"
	"testing"

	"cachecraft/internal/cache"
	"cachecraft/internal/config"
	"cachecraft/internal/dram"
	"cachecraft/internal/ecc"
	"cachecraft/internal/gpu"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// benchHandler is a minimal typed handler for event-scheduling benchmarks.
type benchHandler struct{ n uint64 }

func (h *benchHandler) OnEvent(_ sim.Cycle, a0, _ uint64) { h.n += a0 }

// BenchmarkEngineSchedulePost measures the pooled typed-handler scheduling
// path: one Post + one Step per op, zero allocations in steady state.
func BenchmarkEngineSchedulePost(b *testing.B) {
	eng := sim.NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Post(eng.Now()+sim.Cycle(i%5), h, 1, 0)
		eng.Step()
	}
}

func BenchmarkSECDEDEncode32B(b *testing.B) {
	codec, err := ecc.NewSECDEDSector(32, 64)
	if err != nil {
		b.Fatal(err)
	}
	sector := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(sector)
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Encode(sector)
	}
}

func BenchmarkSECDEDDecodeClean(b *testing.B) {
	codec, err := ecc.NewSECDEDSector(32, 64)
	if err != nil {
		b.Fatal(err)
	}
	sector := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(sector)
	red := codec.Encode(sector)
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Decode(sector, red)
	}
}

func BenchmarkSECDEDEncodeInto32B(b *testing.B) {
	codec, err := ecc.NewSECDEDSector(32, 64)
	if err != nil {
		b.Fatal(err)
	}
	sector := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(sector)
	dst := make([]byte, 0, codec.RedundancyBytes())
	b.SetBytes(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = codec.EncodeInto(dst[:0], sector)
	}
}

func BenchmarkRSEncode32B(b *testing.B) {
	codec, err := ecc.NewRSSector(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	sector := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(sector)
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Encode(sector)
	}
}

func BenchmarkRSEncodeInto32B(b *testing.B) {
	codec, err := ecc.NewRSSector(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	sector := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(sector)
	dst := make([]byte, 0, codec.RedundancyBytes())
	b.SetBytes(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = codec.EncodeInto(dst[:0], sector)
	}
}

func BenchmarkRSDecodeClean(b *testing.B) {
	codec, err := ecc.NewRSSector(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	sector := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(sector)
	red := codec.Encode(sector)
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Decode(sector, red)
	}
}

func BenchmarkRSDecodeTwoErrors(b *testing.B) {
	codec, err := ecc.NewRSSector(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	golden := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(golden)
	red := codec.Encode(golden)
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sector := append([]byte(nil), golden...)
		parity := append([]byte(nil), red...)
		sector[3] ^= 0x41
		sector[17] ^= 0x9c
		b.StartTimer()
		if res := codec.Decode(sector, parity); res != ecc.Corrected {
			b.Fatalf("decode = %v", res)
		}
	}
}

func BenchmarkTaggedCheck(b *testing.B) {
	codec, err := ecc.NewTagged(32, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(data)
	tag := []byte{0xa}
	parity := codec.Encode(data, tag)
	b.SetBytes(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Check(data, parity, tag)
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench", SizeBytes: 1 << 20, Ways: 16,
		LineBytes: 128, SectorBytes: 32, HashSets: true,
	})
	for a := uint64(0); a < 1<<20; a += 128 {
		c.Fill(a, 0b1111, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*32)%(1<<20), false)
	}
}

func BenchmarkCacheFillEvict(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench", SizeBytes: 256 << 10, Ways: 16,
		LineBytes: 128, SectorBytes: 32, HashSets: true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*128, 0b1111, 0b0001)
	}
}

func BenchmarkDRAMRandomAccess(b *testing.B) {
	eng := sim.NewEngine()
	d := dram.New(eng, dram.DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(rng.Intn(1<<26)) &^ 31
		d.Submit(eng.Now(), mem.Request{Addr: addr, Bytes: 32, Class: mem.Demand})
		if i%64 == 0 {
			eng.Run(1 << 62)
		}
	}
	eng.Run(1 << 62)
}

// BenchmarkDRAMDeepQueue keeps about 2.5k requests outstanding, the depth
// the irregular workload's random and spmv cells reach, so every
// scheduling step sees long bank queues (BenchmarkDRAMRandomAccess drains
// every 64 requests and never does). One op is one submit plus the events
// that retire a request to make room for it.
func BenchmarkDRAMDeepQueue(b *testing.B) {
	const depth = 2560
	eng := sim.NewEngine()
	d := dram.New(eng, dram.DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	done := &retireCounter{}
	submit := func() {
		addr := uint64(rng.Intn(1<<26)) &^ 31
		d.Submit(eng.Now(), mem.Request{Addr: addr, Bytes: 32, Class: mem.Demand, Done: done})
		done.outstanding++
	}
	for done.outstanding < depth {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for done.outstanding >= depth {
			eng.Step()
		}
		submit()
	}
	b.StopTimer()
	eng.Run(1 << 62)
}

// retireCounter is a DRAM completion handler that counts requests still
// outstanding.
type retireCounter struct{ outstanding int }

func (r *retireCounter) OnEvent(sim.Cycle, uint64, uint64) { r.outstanding-- }

// BenchmarkL2BankMissFill drives one default-config L2 bank with line
// misses scattered over the footprint, 32 in flight: each op allocates an
// MSHR entry, fetches through the unprotected controller and DRAM, fills
// a full 16-way set (choosing an LRU victim) and retires the entry. The
// bank is warmed first so every fill evicts.
func BenchmarkL2BankMissFill(b *testing.B) {
	const inFlight = 32
	cfg := config.Default()
	m, err := gpu.New(cfg, "random", protect.NewNone)
	if err != nil {
		b.Fatal(err)
	}
	eng := m.Engine()
	bank := m.Bank(0)
	rng := rand.New(rand.NewSource(3))
	lineBytes := uint64(cfg.L2.LineBytes)
	lines := int(cfg.FootprintBytes / lineBytes / uint64(cfg.L2Banks))
	outstanding := 0
	respond := func(sim.Cycle, uint64) { outstanding-- }
	read := func() {
		line := uint64(rng.Intn(lines)) * uint64(cfg.L2Banks) * lineBytes // routes to bank 0
		bank.HandleRead(eng.Now(), line, 0b1111, respond)
		outstanding++
	}
	step := func() {
		for outstanding >= inFlight {
			eng.Step()
		}
		read()
	}
	for i := 0; i < cfg.L2.SizeBytes/cfg.L2Banks/cfg.L2.LineBytes*2; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	eng.Run(1 << 62)
}

func BenchmarkCoalesce(b *testing.B) {
	w, err := trace.Build("random", trace.DefaultParams(0, 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	a, _ := w.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu.Coalesce(a, 32)
	}
}

// BenchmarkEndToEndSimulation measures simulator throughput (warp accesses
// simulated per second) on the quick configuration. accesses/sec is the
// headline simulation-rate number tracked in BENCH_sim.json.
func BenchmarkEndToEndSimulation(b *testing.B) {
	cfg := config.Quick()
	cfg.AccessesPerSM = 300
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gpu.New(cfg, "scan", protect.NewInlineNaive)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perRun := float64(cfg.NumSMs * cfg.AccessesPerSM)
	b.ReportMetric(perRun, "accesses/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(perRun*float64(b.N)/s, "accesses/sec")
	}
}
