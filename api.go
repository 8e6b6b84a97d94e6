// Package cachecraft is the public API of the CacheCraft reproduction: a
// trace-driven GPU memory-hierarchy simulator for studying memory
// protection (inline ECC) schemes, the CacheCraft reconstructed-caching
// controller itself, and the bit-level ECC codecs the protection story
// rests on.
//
// # Quick start
//
//	cfg := cachecraft.DefaultConfig()
//	res, err := cachecraft.Run(cfg, "stream", "cachecraft")
//	if err != nil { ... }
//	fmt.Println(res.IPC, res.DRAMBytes["redundancy"])
//
// Run simulates one (workload, protection scheme) pair on the configured
// GPU and returns timing and traffic results. Workloads() and Schemes()
// enumerate the available choices. For ablations, build a custom
// CacheCraft with Options and RunCacheCraft.
//
// The underlying subsystem packages live in internal/; this package is the
// stable surface.
package cachecraft

import (
	"context"

	"cachecraft/internal/bench"
	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/gpu"
	"cachecraft/internal/layout"
	"cachecraft/internal/obs"
	"cachecraft/internal/schemes"
	"cachecraft/internal/store"
	"cachecraft/internal/trace"
	"cachecraft/internal/version"
)

// Config is the simulated GPU configuration (Table 1 of the evaluation).
type Config = config.GPU

// Result is the outcome of one simulation run: cycles, instructions, IPC,
// and DRAM traffic broken down by class.
type Result = gpu.Result

// Options configures the CacheCraft controller's four mechanisms
// (reconstruction, redundancy cache, predictor, write buffer).
type Options = core.Options

// Geometry describes the inline-ECC protection granularity.
type Geometry = layout.Geometry

// DefaultConfig returns the evaluation's baseline GPU configuration.
func DefaultConfig() Config { return config.Default() }

// QuickConfig returns a scaled-down configuration suitable for tests and
// smoke runs; absolute numbers are not meaningful at this scale.
func QuickConfig() Config { return config.Quick() }

// DefaultOptions returns the full CacheCraft configuration (all four
// mechanisms enabled).
func DefaultOptions() Options { return core.DefaultOptions() }

// Version reports the simulator identity (module and simulation-semantics
// revision, e.g. "cachecraft@r4"). It is baked into every persistent-store
// fingerprint, so results produced by an older simulator revision are
// never served as cache hits.
func Version() string { return version.String() }

// Fingerprint returns the canonical content address of one simulation:
// a hex SHA-256 over (Version(), the full configuration, workload,
// scheme). It is the key under which cachecraft-sweep -store and
// cachecraft-serve persist results, and the {fingerprint} path segment of
// the service's GET /v1/results endpoint. See docs/MODEL.md for the
// canonicalization rules.
func Fingerprint(cfg Config, workload, scheme string) string {
	return store.Fingerprint(cfg, workload, scheme)
}

// Workloads lists the available synthetic workloads.
func Workloads() []string { return trace.Names() }

// Schemes lists the protection schemes in evaluation order: none,
// inline-naive, ecc-cache, cachecraft.
func Schemes() []string { return schemes.All() }

// Run simulates the named workload under the named protection scheme.
func Run(cfg Config, workload, scheme string) (Result, error) {
	factory, err := schemes.ByName(scheme)
	if err != nil {
		return Result{}, err
	}
	m, err := gpu.New(cfg, workload, factory)
	if err != nil {
		return Result{}, err
	}
	res, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	res.Workload = workload
	res.Scheme = scheme
	return res, nil
}

// RunAudited is Run with the invariant-audit layer armed: the simulation
// executes under internal/audit's checker, which verifies byte
// conservation, MSHR pairing, tick monotonicity, DRAM scheduling
// legality, and full end-of-sim drain as it runs. Auditing changes no
// simulated timing — a clean audited run returns exactly Run's result —
// but a run that violates an invariant fails with an error naming the
// first violated rule. See docs/MODEL.md ("Invariants & auditing").
func RunAudited(cfg Config, workload, scheme string) (Result, error) {
	factory, err := schemes.ByName(scheme)
	if err != nil {
		return Result{}, err
	}
	m, err := gpu.New(cfg, workload, factory)
	if err != nil {
		return Result{}, err
	}
	m.EnableAudit()
	res, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	res.Workload = workload
	res.Scheme = scheme
	return res, nil
}

// Probes is a simulation's time-resolved probe set: cycle-sampled series
// (SM issue rate, DRAM bandwidth by traffic class, per-bank L2 hit rate,
// reconstructed-line fill and hit rates, join latency, and more) taken
// at a fixed sampling window. Export it through a Timeline; see
// docs/OBSERVABILITY.md for the track catalog.
type Probes = obs.Probes

// Timeline collects probe sets (and tracer spans) for export as NDJSON
// or Chrome trace-event JSON loadable in Perfetto.
type Timeline = obs.Timeline

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// RunProbed is Run with the time-resolved probe layer attached, sampling
// every probe track at the given window (in cycles; 0 uses a 1-cycle
// window). With audited set, the invariant-audit layer is armed as well;
// the machine feeds both consumers through one fan-out in each layer's
// single observer slot, so the tracks are the same with or without it.
// Probes never schedule simulator events, so the returned Result is
// identical to Run's; the returned probe set is already flushed and
// ready for Timeline.AddCell or Snapshot.
func RunProbed(cfg Config, workload, scheme string, window uint64, audited bool) (Result, *Probes, error) {
	factory, err := schemes.ByName(scheme)
	if err != nil {
		return Result{}, nil, err
	}
	m, err := gpu.New(cfg, workload, factory)
	if err != nil {
		return Result{}, nil, err
	}
	p := obs.NewProbes(window)
	m.SetProbes(p)
	if audited {
		m.EnableAudit()
	}
	res, err := m.Run()
	if err != nil {
		return Result{}, nil, err
	}
	p.Flush()
	res.Workload = workload
	res.Scheme = scheme
	return res, p, nil
}

// RunAll simulates every (workload, scheme) pair in the cross product,
// fanning the independent simulations out across a worker pool bounded by
// runtime.NumCPU(). Each simulation is deterministic (workload generation
// is seeded per (seed, SM) with no shared mutable state), so the returned
// results are byte-identical to running the pairs serially. Results come
// back in deterministic order: workloads major, schemes minor. The first
// failure cancels outstanding work and is returned.
func RunAll(cfg Config, workloads, schemes []string) ([]Result, error) {
	r := bench.NewRunner(cfg)
	specs := make([]bench.Spec, 0, len(workloads)*len(schemes))
	for _, wl := range workloads {
		for _, s := range schemes {
			specs = append(specs, bench.Spec{CfgID: "base", Workload: wl, Variant: s})
		}
	}
	if err := r.Prefetch(context.Background(), specs); err != nil {
		return nil, err
	}
	out := make([]Result, len(specs))
	for i, s := range specs {
		res, err := r.Result(s)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// RunCacheCraft simulates the workload under a CacheCraft controller built
// with explicit options (for ablation and sensitivity studies).
func RunCacheCraft(cfg Config, workload string, opt Options) (Result, error) {
	m, err := gpu.New(cfg, workload, schemes.CacheCraftWith(opt))
	if err != nil {
		return Result{}, err
	}
	res, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	res.Workload = workload
	res.Scheme = "cachecraft"
	return res, nil
}
