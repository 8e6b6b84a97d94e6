package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"cachecraft/internal/dram"
	"cachecraft/internal/gpu"
	"cachecraft/internal/mem"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
	"cachecraft/internal/schemes"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// Units of the per-layer metrics (the traced run). Every workload
// reports every one; the layers it does not run report 0 (see
// notApplicable).
var perLayerUnits = map[string]string{
	"trace_overhead": "ratio",
	"fail_ratio":     "ratio",

	"sim.events":            "count",
	"sim.events_per_sector": "ratio",
	"sim.ns_per_event":      "ns",
	"sim.execute_s":         "s",
	"sim.drain_s":           "s",

	"trace.accesses": "count",
	"trace.next_s":   "s",

	"gpu.sector_requests": "count",
	"gpu.l2_hit_rate":     "ratio",
	"gpu.l2_mshr_stalls":  "count",
	"gpu.l2_rmw_fetches":  "count",
	"gpu.l2_store_allocs": "count",

	"cache.l2_line_fills":      "count",
	"cache.l2_evictions":       "count",
	"cache.l2_dirty_evictions": "count",

	"protect.read_miss_calls":  "count",
	"protect.writeback_calls":  "count",
	"protect.call_self_s":      "s",
	"protect.redundancy_bytes": "B",

	"core.recon_sectors":      "count",
	"core.recon_useful_ratio": "ratio",
	"core.red_rc_hits":        "count",

	"dram.requests":          "count",
	"dram.row_hit_rate":      "ratio",
	"dram.max_outstanding":   "count",
	"dram.replay_ns_per_req": "ns",
	"dram.replay_exact":      "ratio",
	"go.allocs_per_sector":   "ratio",
	"go.gc_cycles":           "count",
	"serve.status_200":       "count",
	"serve.status_304":       "count",
	"serve.status_429":       "count",
	"serve.status_5xx":       "count",
	"bench.executed_sims":    "count",
	"bench.store_hits":       "count",
	"span.store_lookup_s":    "s",
	"span.queue_wait_s":      "s",
	"span.simulate_s":        "s",
	"span.persist_s":         "s",
	"cpu.sampled_s":          "s",
	"cpu.traced_wall_s":      "s",
	"cpu.sim":                "fraction",
	"cpu.trace":              "fraction",
	"cpu.gpu":                "fraction",
	"cpu.cache":              "fraction",
	"cpu.xbar":               "fraction",
	"cpu.protect":            "fraction",
	"cpu.core":               "fraction",
	"cpu.dram":               "fraction",
	"cpu.go_malloc":          "fraction",
	"cpu.go_map":             "fraction",
	"cpu.go_gc":              "fraction",
	"cpu.serve":              "fraction",
	"cpu.store":              "fraction",
	"cpu.bench":              "fraction",
	"cpu.obs":                "fraction",
	"cpu.net_http":           "fraction",
	"cpu.json":               "fraction",
	"cpu.other":              "fraction",
}

// notApplicable lists, by kind of workload, the per-layer metrics of
// layers it does not run; they report 0. Any other metric a traced run
// leaves unmeasured is an error. The service builds its own workloads
// and its DRAM streams are not replayed; the simulation workloads run
// no service.
var notApplicable = map[bool][]string{
	true: {"trace.accesses", "trace.next_s", "dram.replay_ns_per_req", "dram.replay_exact"},
	false: {"serve.status_200", "serve.status_304", "serve.status_429", "serve.status_5xx",
		"bench.executed_sims", "bench.store_hits",
		"span.store_lookup_s", "span.queue_wait_s", "span.simulate_s", "span.persist_s"},
}

// dramRec is one submitted DRAM request, as the replay needs it: the
// engine cycle it was submitted in, and the arrival cycle the caller
// passed (which can differ from the engine's).
type dramRec struct {
	at    sim.Cycle
	now   sim.Cycle
	addr  uint64
	bytes int32
	class mem.Class
	write bool
}

// rowCounts are DRAM row-buffer outcomes.
type rowCounts struct{ hits, misses, conflicts uint64 }

// cellTrace collects one machine's per-layer numbers through the seams
// the simulator exposes: the workload source, the scheme factory (and
// through it the engine step hook and the DRAM hook). Hot seams keep
// (count, total ns), never one record per call. A machine runs on one
// goroutine, so no field needs a lock.
type cellTrace struct {
	eng           *sim.Engine
	events        uint64
	accesses      uint64
	nextNs        int64
	readMisses    uint64
	writebacks    uint64
	callNs        int64
	depth         int
	dramReqs      uint64
	outstanding   int64
	maxOutstand   int64
	live          rowCounts
	recordStream  bool
	stream        []dramRec
	replayNs      float64
	replayMatches bool
}

// Submitted implements dram.Hook.
func (ct *cellTrace) Submitted(now sim.Cycle, req mem.Request, ch, bk int, row int64) {
	ct.dramReqs++
	ct.outstanding++
	if ct.outstanding > ct.maxOutstand {
		ct.maxOutstand = ct.outstanding
	}
	if ct.recordStream {
		ct.stream = append(ct.stream, dramRec{at: ct.eng.Now(), now: now, addr: req.Addr,
			bytes: int32(req.Bytes), class: req.Class, write: req.Write})
	}
}

// Serviced implements dram.Hook: the scheduler classifies a dispatch as
// a row hit, miss (bank closed) or conflict by the bank's open row.
func (ct *cellTrace) Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, openBefore int64, readyBefore sim.Cycle) {
	ct.outstanding--
	switch {
	case openBefore == row:
		ct.live.hits++
	case openBefore < 0:
		ct.live.misses++
	default:
		ct.live.conflicts++
	}
}

// Refreshed implements dram.Hook.
func (ct *cellTrace) Refreshed(now sim.Cycle, ch int) {}

// wrapFactory hooks the machine's engine and DRAM and wraps the scheme.
func (ct *cellTrace) wrapFactory(f protect.Factory) protect.Factory {
	return func(env *protect.Env) protect.Scheme {
		ct.eng = env.Eng
		env.Eng.SetStepHook(func(sim.Cycle) { ct.events++ })
		env.DRAM.SetHook(ct)
		return &tracedScheme{inner: f(env), ct: ct}
	}
}

// wrapSource times every Workload.Next of the machine's SMs.
func (ct *cellTrace) wrapSource(src gpu.WorkloadSource) gpu.WorkloadSource {
	return func(smID, numSMs int) (trace.Workload, error) {
		w, err := src(smID, numSMs)
		if err != nil {
			return nil, err
		}
		return &timedWorkload{Workload: w, ct: ct}, nil
	}
}

type timedWorkload struct {
	trace.Workload
	ct *cellTrace
}

func (w *timedWorkload) Next() (trace.Access, bool) {
	t0 := time.Now()
	a, ok := w.Workload.Next()
	w.ct.nextNs += time.Since(t0).Nanoseconds()
	if ok {
		w.ct.accesses++
	}
	return a, ok
}

// tracedScheme counts and times the controller's entry points. Calls
// can nest (a fill's eviction writes back from inside a read miss), so
// only the outermost call is timed. It forwards reconstruction feedback:
// the machine only reports it to schemes that implement
// ReconstructionObserver, and dropping it would change CacheCraft's
// results.
type tracedScheme struct {
	inner protect.Scheme
	ct    *cellTrace
}

func (s *tracedScheme) enter() time.Time {
	s.ct.depth++
	if s.ct.depth == 1 {
		return time.Now()
	}
	return time.Time{}
}

func (s *tracedScheme) exit(t0 time.Time) {
	s.ct.depth--
	if s.ct.depth == 0 {
		s.ct.callNs += time.Since(t0).Nanoseconds()
	}
}

func (s *tracedScheme) Name() string { return s.inner.Name() }

func (s *tracedScheme) ReadMiss(now sim.Cycle, lineAddr, mask uint64, class mem.Class, done func(sim.Cycle)) {
	s.ct.readMisses++
	t0 := s.enter()
	s.inner.ReadMiss(now, lineAddr, mask, class, done)
	s.exit(t0)
}

func (s *tracedScheme) Writeback(now sim.Cycle, lineAddr, dirtyMask uint64) {
	s.ct.writebacks++
	t0 := s.enter()
	s.inner.Writeback(now, lineAddr, dirtyMask)
	s.exit(t0)
}

func (s *tracedScheme) NeedsRMWFetch() bool { return s.inner.NeedsRMWFetch() }

func (s *tracedScheme) Drain(now sim.Cycle) {
	t0 := s.enter()
	s.inner.Drain(now)
	s.exit(t0)
}

func (s *tracedScheme) ReconstructedUse(addr uint64, used bool) {
	if ro, ok := s.inner.(protect.ReconstructionObserver); ok {
		ro.ReconstructedUse(addr, used)
	}
}

// feeder replays a recorded submit stream: one pending event at a
// time, submitting every request of an engine cycle when that cycle
// runs. With d nil it only walks the stream, which times the engine's
// share.
type feeder struct {
	eng *sim.Engine
	d   *dram.DRAM
	rec []dramRec
	i   int
}

func (f *feeder) OnEvent(now sim.Cycle, _, _ uint64) {
	for f.i < len(f.rec) && f.rec[f.i].at <= now {
		if f.d != nil {
			r := f.rec[f.i]
			f.d.Submit(r.now, mem.Request{Addr: r.addr, Write: r.write, Bytes: int(r.bytes), Class: r.class})
		}
		f.i++
	}
	if f.i < len(f.rec) {
		f.eng.Post(f.rec[f.i].at, f, 0, 0)
	}
}

func replayOnce(cfg dram.Config, rec []dramRec, withDRAM bool) (time.Duration, *dram.DRAM) {
	eng := sim.NewEngine()
	f := &feeder{eng: eng, rec: rec}
	if withDRAM {
		f.d = dram.New(eng, cfg)
	}
	t0 := time.Now()
	if len(rec) > 0 {
		eng.Post(rec[0].at, f, 0, 0)
	}
	eng.Run(^sim.Cycle(0) >> 1)
	return time.Since(t0), f.d
}

// replay feeds the recorded stream through a fresh DRAM on a fresh
// engine, and again through the engine alone; the difference is the
// DRAM model's own cost. It reports whether the replay reproduced the
// live run's row-buffer outcomes (same-cycle arbitration against the
// rest of the machine can make it differ).
func (ct *cellTrace) replay(cfg dram.Config) {
	full, d := replayOnce(cfg, ct.stream, true)
	bare, _ := replayOnce(cfg, ct.stream, false)
	ct.replayNs = float64((full - bare).Nanoseconds())
	got := rowCounts{d.Stats.Get("row_hits"), d.Stats.Get("row_misses"), d.Stats.Get("row_conflicts")}
	ct.replayMatches = got == ct.live
	ct.stream = nil
}

// spanSums totals span durations by name.
type spanSums struct {
	mu  sync.Mutex
	sum map[string]time.Duration
}

func (s *spanSums) ExportSpan(d obs.SpanData) {
	s.mu.Lock()
	if s.sum == nil {
		s.sum = map[string]time.Duration{}
	}
	s.sum[d.Name] += time.Duration(d.Dur) * time.Microsecond
	s.mu.Unlock()
}

func (s *spanSums) seconds(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum[name].Seconds()
}

// layerTotals aggregates cell traces and results into per-layer sums.
type layerTotals struct {
	cells, exactReplays           int
	events, accesses              uint64
	nextNs, callNs                int64
	readMisses, writebacks        uint64
	dramReqs                      uint64
	maxOutstand                   int64
	live                          rowCounts
	replayNs                      float64
	sectors, l2Hits, l2Misses     uint64
	mshrStalls, rmw, storeAllocs  uint64
	fills, evictions, dirtyEvicts uint64
	redBytes                      uint64
	reconSectors, reconUsed       uint64
	redRCHits                     uint64
}

func (lt *layerTotals) addTrace(ct *cellTrace, replayed bool) {
	lt.cells++
	lt.events += ct.events
	lt.accesses += ct.accesses
	lt.nextNs += ct.nextNs
	lt.callNs += ct.callNs
	lt.readMisses += ct.readMisses
	lt.writebacks += ct.writebacks
	lt.dramReqs += ct.dramReqs
	lt.live.hits += ct.live.hits
	lt.live.misses += ct.live.misses
	lt.live.conflicts += ct.live.conflicts
	if ct.maxOutstand > lt.maxOutstand {
		lt.maxOutstand = ct.maxOutstand
	}
	if replayed {
		lt.replayNs += ct.replayNs
		if ct.replayMatches {
			lt.exactReplays++
		}
	}
}

func (lt *layerTotals) addResult(r gpu.Result) {
	lt.sectors += r.Machine.Get("sector_requests")
	lt.l2Hits += r.Machine.Get("l2_hits")
	lt.l2Misses += r.Machine.Get("l2_misses")
	lt.mshrStalls += r.Machine.Get("l2_mshr_stalls")
	lt.rmw += r.Machine.Get("l2_rmw_fetches")
	lt.storeAllocs += r.Machine.Get("l2_store_allocs")
	lt.fills += r.L2Stats.Get("line_fills")
	lt.evictions += r.L2Stats.Get("evictions")
	lt.dirtyEvicts += r.L2Stats.Get("dirty_evictions")
	lt.redBytes += r.DRAMBytes[mem.Redundancy.String()]
	lt.reconSectors += r.ControllerSt.Get("reconstruct_sectors")
	lt.reconUsed += r.ControllerSt.Get("reconstruct_used")
	lt.redRCHits += r.ControllerSt.Get("red_rc_hits")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fill writes the layer metrics that every traced workload reports.
func (lt *layerTotals) fill(m metrics) {
	m["sim.events"] = float64(lt.events)
	m["sim.events_per_sector"] = ratio(float64(lt.events), float64(lt.sectors))
	m["gpu.sector_requests"] = float64(lt.sectors)
	m["gpu.l2_hit_rate"] = ratio(float64(lt.l2Hits), float64(lt.l2Hits+lt.l2Misses))
	m["gpu.l2_mshr_stalls"] = float64(lt.mshrStalls)
	m["gpu.l2_rmw_fetches"] = float64(lt.rmw)
	m["gpu.l2_store_allocs"] = float64(lt.storeAllocs)
	m["cache.l2_line_fills"] = float64(lt.fills)
	m["cache.l2_evictions"] = float64(lt.evictions)
	m["cache.l2_dirty_evictions"] = float64(lt.dirtyEvicts)
	m["protect.read_miss_calls"] = float64(lt.readMisses)
	m["protect.writeback_calls"] = float64(lt.writebacks)
	m["protect.call_self_s"] = float64(lt.callNs) / 1e9
	m["protect.redundancy_bytes"] = float64(lt.redBytes)
	m["core.recon_sectors"] = float64(lt.reconSectors)
	m["core.recon_useful_ratio"] = ratio(float64(lt.reconUsed), float64(lt.reconSectors))
	m["core.red_rc_hits"] = float64(lt.redRCHits)
	m["dram.requests"] = float64(lt.dramReqs)
	live := lt.live.hits + lt.live.misses + lt.live.conflicts
	m["dram.row_hit_rate"] = ratio(float64(lt.live.hits), float64(live))
	m["dram.max_outstanding"] = float64(lt.maxOutstand)
}

// runTraced makes the separate traced run of a workload and returns its
// per-layer metrics.
func runTraced(workload string, seed int64, tbl *digestTable, workDir, goTool string) (metrics, tally, error) {
	profDir, err := os.MkdirTemp(workDir, "prof-")
	if err != nil {
		return nil, tally{}, err
	}
	defer os.RemoveAll(profDir)
	var (
		m metrics
		t tally
	)
	if workload == "serve_mix" {
		m, t, err = traceServe(seed, tbl, workDir, profDir)
	} else {
		m, t, err = traceSim(workload, seed, tbl, profDir)
	}
	if err != nil {
		return nil, t, err
	}
	shares, sampled, err := cpuShares(goTool, profDir)
	if err != nil {
		return nil, t, err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["cpu.sampled_s"] = sampled
	m["fail_ratio"] = ratio(float64(t.failed), float64(t.attempted))
	for _, name := range notApplicable[workload == "serve_mix"] {
		m[name] = 0
	}
	return m, t, nil
}

// profile runs fn under the CPU profiler, writing profile n in dir.
func profile(dir string, n int, fn func()) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%04d.pprof", n)))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// traceSim: one untraced pass (the reference for trace_overhead and the
// host-time-per-event figure), then one traced pass, profiling each
// cell's set-up and run and replaying its DRAM stream after.
func traceSim(name string, seed int64, tbl *digestTable, profDir string) (metrics, tally, error) {
	var t tally
	cells := simWorkloads[name]
	cfg := simConfig(seed)
	k := newCellChecker(tbl, fullCfgName, seed)
	runtime.GC()
	base := runSimPass(cfg, cells, k, &t, nil)

	var (
		lt     layerTotals
		spans  = &spanSums{}
		tr     = obs.NewTracer(spans)
		traced time.Duration
		wall   time.Duration
	)
	for i, c := range cells {
		f, err := schemes.ByName(c.Scheme)
		if err != nil {
			return nil, t, err
		}
		ct := &cellTrace{recordStream: true}
		src := ct.wrapSource(func(smID, numSMs int) (trace.Workload, error) {
			return trace.Build(c.Workload, trace.Params{SMID: smID, NumSMs: numSMs, Seed: cfg.Seed,
				Accesses: cfg.AccessesPerSM, FootprintBytes: cfg.FootprintBytes})
		})
		var (
			res    gpu.Result
			runErr error
		)
		runtime.GC()
		err = profile(profDir, i, func() {
			t0 := time.Now()
			mach, err := gpu.NewFromSource(cfg, src, ct.wrapFactory(f))
			if err != nil {
				runErr = err
				return
			}
			mach.SetTracer(context.Background(), tr)
			t1 := time.Now()
			res, runErr = mach.Run()
			traced += time.Since(t1)
			wall += time.Since(t0)
		})
		if err != nil {
			return nil, t, err
		}
		if runErr != nil {
			t.add(fmt.Errorf("%s traced: %w", c, runErr))
			continue
		}
		t.add(k.check(c, outcomeOf(res)))
		ct.replay(cfg.DRAM)
		lt.addTrace(ct, true)
		lt.addResult(res)
	}
	m := metrics{}
	lt.fill(m)
	m["trace.accesses"] = float64(lt.accesses)
	m["trace.next_s"] = float64(lt.nextNs) / 1e9
	m["dram.replay_ns_per_req"] = ratio(lt.replayNs, float64(lt.dramReqs))
	m["dram.replay_exact"] = ratio(float64(lt.exactReplays), float64(lt.cells))
	m["trace_overhead"] = traced.Seconds()/base.run.Seconds() - 1
	m["cpu.traced_wall_s"] = wall.Seconds()
	m["sim.ns_per_event"] = ratio(float64(base.run.Nanoseconds()), float64(lt.events))
	m["sim.execute_s"] = spans.seconds("sim.execute")
	m["sim.drain_s"] = spans.seconds("sim.drain")
	m["go.allocs_per_sector"] = ratio(float64(base.mallocs), float64(base.sectors))
	m["go.gc_cycles"] = float64(base.gcCycles)
	return m, t, nil
}
