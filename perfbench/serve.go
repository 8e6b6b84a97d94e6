package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
	"cachecraft/internal/schemes"
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

// serve_mix shape. The repository has no record of real traffic, so
// the script copies the access pattern of its own clients of the
// service: cachecraft-sweep, the cluster workers and cachecraft-report
// each ask for a whole grid, every cell once. A script is one cold
// sweep, then repeatSweeps repeat sweeps:
//
//   - The cold sweep asks for every cell in grid order; each answer
//     simulates and persists. One client walks it: with one simulation
//     at a time, a second client's cold request would only queue behind
//     the first, so each cold latency would be two cells' simulations
//     in an order set by a race. The order is fixed so that the cold
//     latencies are a property of the code, not the seed.
//   - Each repeat sweep asks for every cell once, in a seeded order, so
//     every cell is repeated equally often. Two kinds of client repeat
//     a sweep: one that kept the records revalidates them (every
//     request sends If-None-Match and expects 304), one that did not
//     asks afresh (200 from the store). Nothing says which is more
//     common, so the repeat sweeps alternate between the two.
//
// The repeat sweeps are measured in blocks of warmBlock consecutive
// requests: each block gives a p50, a p99 (12 samples beyond it) and a
// request rate, and the warm figures are medians over every block of
// the run. A host hiccup then spoils the blocks it falls in, not the
// figure. A block is 30 sweeps, 15 of each kind, and repeatSweeps makes
// four blocks a pass.
const (
	serveClients = 2
	repeatSweeps = 120
	warmBlock    = 1200
)

// scriptReq is one request of the script: a cell index into serveCells()
// and whether it sends If-None-Match with the cell's ETag.
type scriptReq struct {
	Cell int
	INM  bool
}

// makeScript builds the request script for a seed: nCells cold requests
// in grid order, then sweeps repeat sweeps. The same seed gives the same
// script.
func makeScript(seed int64, nCells, sweeps int) []scriptReq {
	r := rand.New(rand.NewSource(seed))
	out := make([]scriptReq, 0, nCells*(1+sweeps))
	for c := 0; c < nCells; c++ {
		out = append(out, scriptReq{Cell: c})
	}
	for s := 0; s < sweeps; s++ {
		for _, c := range r.Perm(nCells) {
			out = append(out, scriptReq{Cell: c, INM: s%2 == 1})
		}
	}
	return out
}

// client issues /v1/simulate requests and checks every answer.
type client struct {
	base   string
	http   *http.Client
	cells  []cell
	expect func(c cell) (string, bool) // recorded digest per cell

	mu     sync.Mutex
	status map[int]int // responses by status code (0 = transport error)
}

func newClient(base string, cells []cell, expect func(cell) (string, bool)) *client {
	return &client{
		base:   base,
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		cells:  cells,
		expect: expect,
		status: map[int]int{},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// answer is one checked response.
type answer struct {
	Status int
	ETag   string
	Result *gpu.Result   // the returned result (200 only)
	Took   time.Duration // from sending the request to reading the whole body
}

// do sends one request (conditional when etag is set) and checks the
// response: a 200 must carry a body whose SHA-256 is its ETag and whose
// result matches the recorded digest; a 304 is only valid for a
// conditional request and must repeat its ETag. Every other status —
// 429 and 5xx included — is a failure.
func (c *client) do(ctx context.Context, cellIdx int, etag string) (answer, error) {
	cl := c.cells[cellIdx]
	// Two strings always marshal.
	body, _ := json.Marshal(serve.SimulateRequest{Workload: cl.Workload, Scheme: cl.Scheme})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.count(0)
		return answer{}, fmt.Errorf("%s: %w", cl, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	c.count(resp.StatusCode)
	if err != nil {
		return answer{}, fmt.Errorf("%s: reading body: %w", cl, err)
	}
	got := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusNotModified:
		if etag == "" || got != etag {
			return answer{}, fmt.Errorf("%s: 304 with ETag %q for If-None-Match %q", cl, got, etag)
		}
		return answer{Status: resp.StatusCode, ETag: got, Took: took}, nil
	case http.StatusOK:
		a, err := c.checkRecord(cl, got, data)
		a.Took = took
		return a, err
	default:
		return answer{}, fmt.Errorf("%s: status %d: %s", cl, resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

func (c *client) checkRecord(cl cell, etag string, data []byte) (answer, error) {
	data = bytes.TrimSuffix(data, []byte("\n"))
	sum := sha256.Sum256(data)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; etag != want {
		return answer{}, fmt.Errorf("%s: body checksum %s disagrees with ETag %s", cl, want, etag)
	}
	var rec store.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return answer{}, fmt.Errorf("%s: decoding record: %w", cl, err)
	}
	if rec.Workload != cl.Workload || rec.Scheme != cl.Scheme || rec.Sim != version.String() {
		return answer{}, fmt.Errorf("%s: record is for %s/%s at %s", cl, rec.Workload, rec.Scheme, rec.Sim)
	}
	o := outcomeOf(rec.Result)
	want, ok := c.expect(cl)
	if !ok {
		return answer{}, fmt.Errorf("%s: no recorded digest", cl)
	}
	if d := o.Digest(); d != want {
		return answer{}, fmt.Errorf("%s: digest %s, recorded %s", cl, d, want)
	}
	return answer{Status: http.StatusOK, ETag: etag, Result: &rec.Result}, nil
}

func (c *client) count(code int) {
	c.mu.Lock()
	c.status[code]++
	c.mu.Unlock()
}

// service is one running server instance over a fresh store.
type service struct {
	dir  string
	hs   *http.Server
	done chan struct{}
	url  string
}

// serveBase is the configuration the service simulates: quick scale at
// the default seed, as cachecraft-serve -quick runs it.
func serveBase() config.GPU { return config.Quick() }

// startService opens a fresh store under workDir and starts the server
// on loopback. runner may carry traced scheme factories; tr may be nil.
func startService(workDir string, runner *bench.Runner, tr *obs.Tracer) (*service, error) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Options{Base: serveBase(), Runner: runner, Store: st, MaxInFlight: serveClients, Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once stop shuts it down; an
		// accept failure before that shows up as failed requests.
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down, waits for it, and deletes the store.
func (s *service) stop() error {
	err := s.hs.Shutdown(context.Background())
	<-s.done
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// newServeRunner is the runner behind the service: one simulation at a
// time, so a cold request's simulation never competes with another.
func newServeRunner() *bench.Runner {
	r := bench.NewRunner(serveBase())
	r.SetWorkers(1)
	return r
}

// servePass is one walk of the script against a fresh service.
type servePass struct {
	wall     time.Duration // cold phase plus repeat phase
	coldWall time.Duration // cold phase
	sectors  uint64
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
	cold     []float64    // per cell: ms of its cold request
	blocks   []warmStats  // per warmBlock repeat requests
	warmN    int          // repeat requests
	warm200  int          // repeat requests answered 200
	warm304  int          // repeat requests answered 304
	results  []gpu.Result // results of successful cold requests
	status   map[int]int
}

// warmStats sums up one block of repeat requests.
type warmStats struct {
	p50, p99 quantile // request latency, ms
	rate     float64  // requests per second, first send to last answer
}

// walked is one request's answer, error and timing. start and end are
// offsets from the start of the walk; end comes after the answer's
// checks, so end-start can exceed the answer's latency.
type walked struct {
	answer
	err        error
	start, end time.Duration
}

// walk sends reqs with clients closed-loop clients, each taking the
// next unsent request. A conditional request carries etags[cell]. It
// returns each request's outcome by index; the decoded results are kept
// only if keepResults is set.
func (c *client) walk(reqs []scriptReq, etags []string, clients int, keepResults bool) []walked {
	var (
		out   = make([]walked, len(reqs))
		next  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(reqs) {
					return
				}
				etag := ""
				if reqs[n].INM {
					etag = etags[reqs[n].Cell]
				}
				w := &out[n]
				w.start = time.Since(start)
				w.answer, w.err = c.do(context.Background(), reqs[n].Cell, etag)
				w.end = time.Since(start)
				if !keepResults {
					w.Result = nil
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// blockStats sums up one block of repeat requests, with times scaled by
// the host factor f.
func blockStats(ws []walked, f float64) warmStats {
	ms := make([]float64, len(ws))
	first, last := ws[0].start, ws[0].end
	for i, w := range ws {
		ms[i] = float64(scale(w.Took, f).Nanoseconds()) / 1e6
		first, last = min(first, w.start), max(last, w.end)
	}
	return warmStats{
		p50:  percentile(ms, 50),
		p99:  percentile(ms, 99),
		rate: float64(len(ws)) / scale(last-first, f).Seconds(),
	}
}

// heapDelta adds the heap figures between two MemStats to a pass.
func (p *servePass) heapDelta(ms0, ms1 *runtime.MemStats) {
	p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs += ms1.Mallocs - ms0.Mallocs
	p.gcCycles += ms1.NumGC - ms0.NumGC
}

// runScript walks the script in two phases: the cold sweep (the first
// len(serveCells()) requests) with one client, then, after a garbage
// collection, the repeat sweeps with serveClients, which all find their
// cell stored, in blocks of warmBlock requests (a last short block is
// walked and checked but not summed up). h takes its reference samples
// after each cold request and each block, outside the timed spans, and
// their times are scaled by it. Heap figures cover the timed spans only.
func runScript(s *service, script []scriptReq, tbl *digestTable, t *tally, h *hostClock) servePass {
	cells := serveCells()
	cl := newClient(s.url, cells, func(c cell) (string, bool) { return tbl.expect(quickCfgName, defaultSeed, c) })
	defer cl.close()
	pass := servePass{cold: make([]float64, len(cells))}
	etags := make([]string, len(cells))
	var ms0, ms1 runtime.MemStats

	for i, rq := range script[:len(cells)] {
		runtime.ReadMemStats(&ms0)
		w := cl.walk(script[i:i+1], etags, 1, true)[0]
		runtime.ReadMemStats(&ms1)
		pass.heapDelta(&ms0, &ms1)
		f := h.span(w.end - w.start)
		pass.coldWall += scale(w.end-w.start, f)
		t.add(w.err)
		pass.cold[rq.Cell] = float64(scale(w.Took, f).Nanoseconds()) / 1e6
		etags[rq.Cell] = w.ETag
		if r := w.Result; r != nil {
			pass.sectors += r.Machine.Get("sector_requests")
			pass.results = append(pass.results, *r)
		}
	}

	runtime.GC()
	var warmWall time.Duration
	for lo := len(cells); lo < len(script); lo += warmBlock {
		hi := min(lo+warmBlock, len(script))
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		warm := cl.walk(script[lo:hi], etags, serveClients, false)
		took := time.Since(start)
		runtime.ReadMemStats(&ms1)
		pass.heapDelta(&ms0, &ms1)
		f := h.span(took)
		warmWall += scale(took, f)
		for _, w := range warm {
			t.add(w.err)
			switch {
			case w.err != nil:
			case w.Status == http.StatusOK:
				pass.warm200++
			default:
				pass.warm304++
			}
		}
		pass.warmN += len(warm)
		if len(warm) == warmBlock {
			pass.blocks = append(pass.blocks, blockStats(warm, f))
		}
	}
	pass.wall = pass.coldWall + warmWall
	pass.status = cl.status
	return pass
}

// timeServeSetup starts and stops the service setupBatch times and
// returns each start's duration (store open through listening), scaled
// by h.
func timeServeSetup(workDir string, h *hostClock) ([]float64, error) {
	var (
		out   []float64
		batch time.Duration
	)
	for i := 0; i < setupBatch; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := startService(workDir, newServeRunner(), nil)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
		batch += d
	}
	f := h.span(batch)
	for i := range out {
		out[i] /= f
	}
	return out, nil
}

// passScripts derives one script per pass from the run's seed, so a run
// pools several repeat streams.
func passScripts(seed int64) func() []scriptReq {
	r := rand.New(rand.NewSource(seed))
	return func() []scriptReq { return makeScript(r.Int63(), len(serveCells()), repeatSweeps) }
}

// runServePass starts a fresh service, walks the script and stops it.
func runServePass(workDir string, runner *bench.Runner, tr *obs.Tracer, script []scriptReq, tbl *digestTable, t *tally, h *hostClock) (servePass, error) {
	s, err := startService(workDir, runner, tr)
	if err != nil {
		return servePass{}, err
	}
	p := runScript(s, script, tbl, t, h)
	return p, s.stop()
}

// runServe is a timed run of serve_mix: set-up rounds, then whole
// script passes (each against a fresh store) until the budget is spent.
func runServe(seed int64, budget time.Duration, tbl *digestTable, workDir string) (metrics, tally, error) {
	var (
		t      tally
		setups []float64
		passes []servePass
		h      = &hostClock{}
	)
	nextScript := passScripts(seed)
	err := untilBudget(budget, func() error {
		s, err := timeServeSetup(workDir, h)
		if err != nil {
			return err
		}
		setups = append(setups, s...)
		p, err := runServePass(workDir, newServeRunner(), nil, nextScript(), tbl, &t, h)
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return nil, t, err
	}
	// Cold figures are percentiles over every cold request of the run,
	// 40 a pass: a single cold request of a 100 ms cell swings by a
	// third with the host, so a percentile over the cells' per-pass
	// medians would move with the few samples of the one cell at its
	// rank. Warm figures are medians over every block of warmBlock
	// repeat requests in the run.
	var wall, secPerS, allocMB, reqPerS, cold, warm50, warm99 []float64
	for i, p := range passes {
		wall = append(wall, p.wall.Seconds())
		secPerS = append(secPerS, float64(p.sectors)/p.coldWall.Seconds())
		allocMB = append(allocMB, float64(p.alloc)/1e6)
		cold = append(cold, p.cold...)
		for _, b := range p.blocks {
			if !b.p99.OK() {
				return nil, t, fmt.Errorf("serve_mix: pass %d: p99 of %d warm requests has %d beyond", i, b.p99.Samples, b.p99.Beyond)
			}
			warm50 = append(warm50, b.p50.Value)
			warm99 = append(warm99, b.p99.Value)
			reqPerS = append(reqPerS, b.rate)
		}
		n := float64(len(p.cold) + p.warmN)
		logf("serve_mix: pass %d: %.3f s (cold %.3f s); %d requests: cold %.4f, warm 200 %.4f, 304 %.4f",
			i, p.wall.Seconds(), p.coldWall.Seconds(), int(n), float64(len(p.cold))/n, float64(p.warm200)/n, float64(p.warm304)/n)
	}
	c75 := percentile(cold, 75)
	if !c75.OK() {
		return nil, t, fmt.Errorf("serve_mix: p75 of %d cold requests has %d beyond", c75.Samples, c75.Beyond)
	}
	// Every time is already scaled to reference speed (hostref.go).
	logf("serve_mix: %d passes; host factor %.4f over %d reference samples", len(passes), h.factor(), len(h.samples))
	return metrics{
		"wall_s":            median(wall),
		"sector_reqs_per_s": median(secPerS),
		"setup_s":           median(setups),
		"alloc_mb":          median(allocMB),
		"req_per_s":         median(reqPerS),
		"cold_p50_ms":       percentile(cold, 50).Value,
		"cold_p75_ms":       c75.Value,
		"warm_p50_ms":       median(warm50),
		"warm_p99_ms":       median(warm99),
	}, t, nil
}

// traceServe: one untraced script pass (the reference for
// trace_overhead), then one traced pass against a fresh service whose
// runner simulates through traced scheme factories, with request and
// cell spans on and the CPU profiler running.
func traceServe(seed int64, tbl *digestTable, workDir, profDir string) (metrics, tally, error) {
	var t tally
	script := passScripts(seed)()
	runtime.GC()
	base, err := runServePass(workDir, newServeRunner(), nil, script, tbl, &t, nil)
	if err != nil {
		return nil, t, err
	}

	var (
		mu     sync.Mutex
		traces []*cellTrace
		spans  = &spanSums{}
		tr     = obs.NewTracer(spans)
		runner = newServeRunner()
		pass   servePass
	)
	for _, name := range schemes.All() {
		f, err := schemes.ByName(name)
		if err != nil {
			return nil, t, err
		}
		runner.AddVariant(name, func(env *protect.Env) protect.Scheme {
			ct := &cellTrace{}
			mu.Lock()
			traces = append(traces, ct)
			mu.Unlock()
			return ct.wrapFactory(f)(env)
		})
	}
	runner.SetTracer(tr)
	runtime.GC()
	var passErr error
	if err := profile(profDir, 0, func() {
		pass, passErr = runServePass(workDir, runner, tr, script, tbl, &t, nil)
	}); err != nil {
		return nil, t, err
	}
	if passErr != nil {
		return nil, t, passErr
	}

	var lt layerTotals
	for _, ct := range traces {
		lt.addTrace(ct, false)
	}
	for _, r := range pass.results {
		lt.addResult(r)
	}
	m := metrics{}
	lt.fill(m)
	st := runner.Stats()
	fiveXX := 0
	for code, n := range pass.status {
		if code >= 500 {
			fiveXX += n
		}
	}
	m["trace_overhead"] = pass.wall.Seconds()/base.wall.Seconds() - 1
	m["cpu.traced_wall_s"] = pass.wall.Seconds()
	m["sim.ns_per_event"] = ratio(float64(spans.seconds("simulate"))*1e9, float64(lt.events))
	m["sim.execute_s"] = spans.seconds("sim.execute")
	m["sim.drain_s"] = spans.seconds("sim.drain")
	m["go.allocs_per_sector"] = ratio(float64(base.mallocs), float64(base.sectors))
	m["go.gc_cycles"] = float64(base.gcCycles)
	m["serve.status_200"] = float64(pass.status[http.StatusOK])
	m["serve.status_304"] = float64(pass.status[http.StatusNotModified])
	m["serve.status_429"] = float64(pass.status[http.StatusTooManyRequests])
	m["serve.status_5xx"] = float64(fiveXX)
	m["bench.executed_sims"] = float64(st.Runs)
	m["bench.store_hits"] = float64(st.StoreHits)
	m["span.store_lookup_s"] = spans.seconds("store-lookup")
	m["span.queue_wait_s"] = spans.seconds("queue-wait")
	m["span.simulate_s"] = spans.seconds("simulate")
	m["span.persist_s"] = spans.seconds("persist")
	return m, t, nil
}
