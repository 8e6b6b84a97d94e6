package main

import (
	"fmt"
	"runtime"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/schemes"
)

// cell is one simulation: a named workload under a named scheme.
type cell struct {
	Workload string
	Scheme   string
}

func (c cell) String() string { return c.Workload + "/" + c.Scheme }

func cross(workloads, schemeNames []string) []cell {
	var out []cell
	for _, wl := range workloads {
		for _, sc := range schemeNames {
			out = append(out, cell{wl, sc})
		}
	}
	return out
}

// The simulation workloads, each a fixed list of default-scale cells run
// one at a time. See README.md for why each was chosen.
var (
	simWorkloadNames = []string{"irregular", "streaming", "write_rmw"}
	simWorkloads     = map[string][]cell{
		"irregular": {{"random", "cachecraft"}, {"spmv", "ecc-cache"}},
		"streaming": cross([]string{"gemm", "stencil", "stream", "scan"}, schemes.All()),
		"write_rmw": cross([]string{"transpose", "histogram"}, []string{"inline-naive", "ecc-cache", "cachecraft"}),
	}
)

// setupBatch is how many set-ups (every machine of the workload built
// but not run, or the service started and stopped) precede each pass.
// Set-up takes microseconds to milliseconds, so host noise moves it a
// lot; batches spread over the whole run, and the median of all of
// them is reported.
const setupBatch = 25

// minPasses makes every median over passes a median of at least two.
const minPasses = 2

// untilBudget calls pass at least minPasses times, and again while
// another call of the average length still fits in the budget.
func untilBudget(budget time.Duration, pass func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := pass(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if n >= minPasses && elapsed+elapsed/time.Duration(n) > budget {
			return nil
		}
	}
}

// simConfig is the default-scale configuration at the run's seed.
func simConfig(seed int64) config.GPU {
	cfg := config.Default()
	cfg.Seed = seed
	return cfg
}

// simulateCell runs one cell from scratch, as the sweep does.
func simulateCell(cfg config.GPU, c cell) (gpu.Result, error) {
	f, err := schemes.ByName(c.Scheme)
	if err != nil {
		return gpu.Result{}, err
	}
	m, err := gpu.New(cfg, c.Workload, f)
	if err != nil {
		return gpu.Result{}, err
	}
	res, err := m.Run()
	if err != nil {
		return gpu.Result{}, fmt.Errorf("%s: %w", c, err)
	}
	return res, nil
}

// tally counts checked operations and keeps the first few failures for
// the log.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// cellChecker decides whether a cell's outcome is correct: against the
// recorded table where it covers the seed, otherwise against the
// cell's first outcome in this run (the simulator is deterministic, so
// every repeat must agree exactly).
type cellChecker struct {
	tbl   *digestTable
	cfg   string
	seed  int64
	first map[cell]string
}

func newCellChecker(tbl *digestTable, cfgName string, seed int64) *cellChecker {
	return &cellChecker{tbl: tbl, cfg: cfgName, seed: seed, first: map[cell]string{}}
}

func (k *cellChecker) check(c cell, o Outcome) error {
	if recorded, err := k.tbl.check(k.cfg, k.seed, c, o); recorded {
		return err
	}
	d := o.Digest()
	if prev, ok := k.first[c]; ok && prev != d {
		return fmt.Errorf("%s seed %d: digest %s differs from this run's earlier %s", c, k.seed, d, prev)
	}
	k.first[c] = d
	return nil
}

// checkAnchors simulates the workload's cells at quick scale under every
// recorded seed and compares them with the table. It runs outside the
// timed passes, so whatever seed the run was given, every run also
// checks the simulator against recorded outputs.
func checkAnchors(tbl *digestTable, cells []cell, t *tally) {
	for _, seed := range recordedSeeds {
		cfg := config.Quick()
		cfg.Seed = seed
		for _, c := range cells {
			res, err := simulateCell(cfg, c)
			if err == nil {
				var recorded bool
				recorded, err = tbl.check(quickCfgName, seed, c, outcomeOf(res))
				if !recorded {
					err = fmt.Errorf("%s: no recorded digest", cellKey(quickCfgName, seed, c))
				}
			}
			t.add(err)
		}
	}
}

// simPass is one timed pass over a workload's cells.
type simPass struct {
	run      time.Duration // summed over Machine.Run, scaled to reference speed
	request  time.Duration // summed over gpu.New + Machine.Run, scaled
	sectors  uint64
	alloc    uint64 // heap bytes allocated during the pass
	mallocs  uint64
	gcCycles uint32
}

// timeSetup builds every machine of the workload setupBatch times and
// returns each round's total gpu.New time in seconds, scaled by h.
func timeSetup(cfg config.GPU, cells []cell, h *hostClock) ([]float64, error) {
	var (
		out   []float64
		batch time.Duration
	)
	for i := 0; i < setupBatch; i++ {
		runtime.GC()
		var total time.Duration
		for _, c := range cells {
			f, err := schemes.ByName(c.Scheme)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			m, err := gpu.New(cfg, c.Workload, f)
			total += time.Since(t0)
			if err != nil {
				return nil, err
			}
			runtime.KeepAlive(m)
		}
		out = append(out, total.Seconds())
		batch += total
	}
	f := h.span(batch)
	for i := range out {
		out[i] /= f
	}
	return out, nil
}

// runSimPass simulates every cell once, untraced, checking each outcome.
// Heap figures cover each cell's gpu.New and Run only. Each cell's
// times are scaled by h.
func runSimPass(cfg config.GPU, cells []cell, k *cellChecker, t *tally, h *hostClock) simPass {
	var p simPass
	var ms0, ms1 runtime.MemStats
	for _, c := range cells {
		f, err := schemes.ByName(c.Scheme)
		if err != nil {
			t.add(err)
			continue
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		m, err := gpu.New(cfg, c.Workload, f)
		if err != nil {
			t.add(err)
			continue
		}
		t1 := time.Now()
		res, err := m.Run()
		end := time.Now()
		runtime.ReadMemStats(&ms1)
		hf := h.span(end.Sub(t0))
		p.run += scale(end.Sub(t1), hf)
		p.request += scale(end.Sub(t0), hf)
		p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.gcCycles += ms1.NumGC - ms0.NumGC
		if err != nil {
			t.add(fmt.Errorf("%s: %w", c, err))
			continue
		}
		o := outcomeOf(res)
		p.sectors += o.SectorRequests
		t.add(k.check(c, o))
	}
	return p
}

// runSim is a timed (untraced) run of a simulation workload: set-up
// batches and whole passes over the cells until the time budget is
// spent (at least minPasses), then the anchor check.
func runSim(name string, seed int64, budget time.Duration, tbl *digestTable) (metrics, tally, error) {
	var (
		t      tally
		setups []float64
		passes []simPass
		h      = &hostClock{}
	)
	cells := simWorkloads[name]
	cfg := simConfig(seed)
	k := newCellChecker(tbl, fullCfgName, seed)
	err := untilBudget(budget, func() error {
		s, err := timeSetup(cfg, cells, h)
		if err != nil {
			return err
		}
		setups = append(setups, s...)
		passes = append(passes, runSimPass(cfg, cells, k, &t, h))
		return nil
	})
	if err != nil {
		return nil, t, err
	}
	checkAnchors(tbl, cells, &t)

	// Every cell simulates, so there is one kind of request: a cell's
	// gpu.New plus Run. A single cell's time swings with host noise, so
	// the latency figures and req_per_s are all one number, the median
	// over passes of the pass's mean cell latency (req_per_s is its
	// reciprocal). They are aliases, not tails; README.md says why.
	// Every time is already scaled to reference speed (hostref.go).
	var wall, secPerS, allocMB, cellMs []float64
	for _, p := range passes {
		wall = append(wall, p.run.Seconds())
		secPerS = append(secPerS, float64(p.sectors)/p.run.Seconds())
		allocMB = append(allocMB, float64(p.alloc)/1e6)
		cellMs = append(cellMs, float64(p.request.Nanoseconds())/1e6/float64(len(cells)))
	}
	latency := median(cellMs)
	logf("%s: %d passes over %d cells; host factor %.4f over %d reference samples",
		name, len(passes), len(cells), h.factor(), len(h.samples))
	return metrics{
		"wall_s":            median(wall),
		"sector_reqs_per_s": median(secPerS),
		"setup_s":           median(setups),
		"alloc_mb":          median(allocMB),
		"req_per_s":         1e3 / latency,
		"cold_p50_ms":       latency,
		"cold_p75_ms":       latency,
		"warm_p50_ms":       latency,
		"warm_p99_ms":       latency,
	}, t, nil
}
