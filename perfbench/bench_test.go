package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/gpu"
	"cachecraft/internal/stats"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p75 := percentile(xs, 75)
	if p75.Value != 30 || p75.Samples != 40 || p75.Beyond != 10 || !p75.OK() {
		t.Fatalf("p75 of 1..40 = %+v, want value 30 with 10 beyond", p75)
	}
	if p90 := percentile(xs, 90); p90.OK() || p90.Beyond != 4 {
		t.Fatalf("p90 of 40 samples = %+v, want rejected with 4 beyond", p90)
	}
	if p := percentile(xs, 50); p.Value != 20 || !p.OK() {
		t.Fatalf("median = %+v", p)
	}
	if percentile(make([]float64, 1000), 99).Beyond != 10 || percentile(make([]float64, 999), 99).OK() {
		t.Fatal("p99 needs 1000 samples")
	}
	if p := percentile(nil, 50); p.OK() || p.Samples != 0 {
		t.Fatalf("empty set = %+v", p)
	}
	if p := percentile(make([]float64, 10000), 99.9); p.Beyond != 10 || !p.OK() {
		t.Fatalf("p99.9 of 10000 = %+v", p)
	}
}

func TestDigestDetectsOneCycle(t *testing.T) {
	o := Outcome{Cycles: 1000, Instructions: 5000, RowHits: 7, SectorRequests: 99, MSHRStalls: 3}
	o.DRAMBytes[0] = 4096
	base := o.Digest()
	p := o
	p.Cycles++
	if p.Digest() == base {
		t.Fatal("a one-cycle change kept the digest")
	}
	// Every pinned field moves the digest.
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		q := o
		f := reflect.ValueOf(&q).Elem().Field(i)
		if f.Kind() == reflect.Array {
			f.Index(len(o.DRAMBytes) - 1).SetUint(1)
		} else {
			f.SetUint(f.Uint() + 1)
		}
		if q.Digest() == base {
			t.Errorf("changing %s kept the digest", v.Type().Field(i).Name)
		}
	}

	tbl := &digestTable{SimRevision: version.SimRevision, Digests: map[string]string{}}
	c := cell{"random", "cachecraft"}
	tbl.Digests[cellKey(fullCfgName, 42, c)] = base
	k := newCellChecker(tbl, fullCfgName, 42)
	if err := k.check(c, o); err != nil {
		t.Fatalf("recorded outcome rejected: %v", err)
	}
	if err := k.check(c, p); err == nil {
		t.Fatal("one-cycle perturbation passed the table check")
	}
	// An unrecorded seed is held to the run's own first outcome.
	k = newCellChecker(tbl, fullCfgName, 3)
	if err := k.check(c, o); err != nil {
		t.Fatal(err)
	}
	if err := k.check(c, p); err == nil {
		t.Fatal("a repeat that differs by one cycle passed")
	}
}

func TestDigestTableCoversRecordedCells(t *testing.T) {
	tbl, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	full, quick := recordCells()
	for _, seed := range recordedSeeds {
		for _, c := range full {
			if _, ok := tbl.expect(fullCfgName, seed, c); !ok {
				t.Errorf("missing %s", cellKey(fullCfgName, seed, c))
			}
		}
		for _, c := range quick {
			if _, ok := tbl.expect(quickCfgName, seed, c); !ok {
				t.Errorf("missing %s", cellKey(quickCfgName, seed, c))
			}
		}
	}
	if want := 2 * (len(full) + len(quick)); len(tbl.Digests) != want {
		t.Errorf("table has %d digests, want %d", len(tbl.Digests), want)
	}
}

func TestDigestRevisionMismatchFailsLoudly(t *testing.T) {
	saved := digestsJSON
	defer func() { digestsJSON = saved }()
	digestsJSON = []byte(`{"sim_revision":"r0","digests":{}}`)
	_, err := loadDigests()
	if err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("stale table accepted: %v", err)
	}
}

func TestScriptIsSeeded(t *testing.T) {
	n := len(serveCells())
	a, b := makeScript(11, n, repeatSweeps), makeScript(11, n, repeatSweeps)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two scripts")
	}
	if reflect.DeepEqual(a, makeScript(12, n, repeatSweeps)) {
		t.Fatal("two seeds gave one script")
	}
	if len(a) != n*(1+repeatSweeps) {
		t.Fatalf("%d requests, want %d", len(a), n*(1+repeatSweeps))
	}
	for i := 0; i < n; i++ {
		if a[i].Cell != i || a[i].INM {
			t.Fatalf("request %d is %+v, want the grid sweep first", i, a[i])
		}
	}
	inm := 0
	for s := 0; s < repeatSweeps; s++ {
		sweep := a[n*(1+s) : n*(2+s)]
		seen := map[int]bool{}
		for _, r := range sweep {
			seen[r.Cell] = true
			if r.INM != sweep[0].INM {
				t.Fatalf("repeat sweep %d mixes conditional and plain requests", s)
			}
		}
		if len(seen) != n {
			t.Fatalf("repeat sweep %d asks for %d distinct cells, want %d", s, len(seen), n)
		}
		if sweep[0].INM {
			inm++
		}
	}
	if inm != repeatSweeps/2 {
		t.Fatalf("%d of %d repeat sweeps conditional", inm, repeatSweeps)
	}
}

// recordBody encodes a served record for c the way the service does.
func recordBody(t *testing.T, c cell) ([]byte, string, Outcome) {
	t.Helper()
	m := stats.NewCounters()
	m.Add("sector_requests", 1234)
	res := gpu.Result{Workload: c.Workload, Scheme: c.Scheme, Cycles: 777, Instructions: 42,
		DRAMBytes: map[string]uint64{"demand": 4096}, Machine: m}
	body, sum, err := store.EncodeRecord(store.Record{Fingerprint: "fp", Sim: version.String(),
		Workload: c.Workload, Scheme: c.Scheme, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return body, `"` + sum + `"`, outcomeOf(res)
}

func TestClientCountsBadAnswersAsFailures(t *testing.T) {
	c := cell{"stream", "none"}
	body, etag, o := recordBody(t, c)
	cases := map[string]http.HandlerFunc{
		"ok": func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("If-None-Match") == etag {
				w.Header().Set("ETag", etag)
				w.WriteHeader(http.StatusNotModified)
				return
			}
			w.Header().Set("ETag", etag)
			w.Write(append(body, '\n'))
		},
		"429": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "saturated", http.StatusTooManyRequests)
		},
		"503": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "injected fault", http.StatusServiceUnavailable)
		},
		"bad-checksum": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", etag)
			w.Write(append(append([]byte(nil), body[:len(body)-1]...), ' ', '}', '\n'))
		},
		"wrong-digest": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", etag)
			w.Write(body)
		},
	}
	for name, h := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(h)
			defer srv.Close()
			want := o.Digest()
			if name == "wrong-digest" {
				p := o
				p.Cycles++
				want = p.Digest()
			}
			cl := newClient(srv.URL, []cell{c}, func(cell) (string, bool) { return want, true })
			defer cl.close()
			var tl tally
			ans, err := cl.do(context.Background(), 0, "")
			tl.add(err)
			if name == "ok" {
				if err != nil || ans.ETag != etag || ans.Result == nil {
					t.Fatalf("good answer rejected: %v", err)
				}
				_, err = cl.do(context.Background(), 0, etag)
				tl.add(err)
				if err != nil {
					t.Fatalf("304 rejected: %v", err)
				}
				if tl.failed != 0 || cl.status[200] != 1 || cl.status[304] != 1 {
					t.Fatalf("tally %+v, statuses %v", tl, cl.status)
				}
				return
			}
			if err == nil || tl.failed != 1 {
				t.Fatalf("%s counted as success", name)
			}
		})
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		seen := map[string]bool{}
		for _, m := range listed {
			seen[m.Name] = true
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s %s [%s]: benchmark reports unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s %s is reported but not listed in BENCHMARK.json", kind, name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndUnits)
	check("per_layer", doc.PerLayer, perLayerUnits)
}

func TestCPUAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"cachecraft/internal/dram.(*DRAM).pickBank": "dram",
		"cachecraft/internal/gpu.(*L2Bank).exec":    "gpu",
		"cachecraft/internal/stats.(*Handle).Add":   "other",
		"internal/runtime/maps.h2":                  "go_map",
		"runtime.mapaccess2_fast64":                 "go_map",
		"runtime.mallocgcSmallScanNoHeader":         "go_malloc",
		"runtime.scanobject":                        "go_gc",
		"net/http.(*conn).serve":                    "net_http",
		"encoding/json.Marshal":                     "json",
		"main.(*tracedScheme).ReadMiss":             "other",
		"runtime.futex":                             "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, want)
		}
	}
	top := strings.Join([]string{
		"Showing nodes accounting for 1000ms, 100% of 1000ms total",
		"      flat  flat%   sum%        cum   cum%",
		"     640ms 64.00% 64.00%      840ms 84.00%  cachecraft/internal/dram.(*DRAM).pickBank",
		"     300ms 30.00% 94.00%      300ms 30.00%  internal/runtime/maps.h2 (inline)",
		"      60ms  6.00%   100%     1000ms   100%  cachecraft/internal/sim.(*Engine).Step",
		"         0     0%   100%     1000ms   100%  runtime.main",
	}, "\n")
	ms, err := parseTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ms) != "map[dram:640 go_map:300 other:0 sim:60]" {
		t.Fatalf("parsed %v", ms)
	}
}

func TestHostClockBracketsEachItem(t *testing.T) {
	var off *hostClock
	if f := off.span(time.Second); f != 1 {
		t.Fatalf("nil hostClock scaled by %v", f)
	}
	h := &hostClock{}
	f1 := h.span(0)
	if len(h.samples) != refMinSamples || f1 != median(h.samples)/refNominal.Seconds() {
		t.Fatalf("first item: factor %v from %v", f1, h.samples)
	}
	before := append([]float64(nil), h.last...)
	long := time.Duration(float64(refMaxSamples+5) * float64(refNominal) / refShare)
	f2 := h.span(long)
	if len(h.last) != refMaxSamples || len(h.samples) != refMinSamples+refMaxSamples {
		t.Fatalf("long item took %d samples (run total %d), want %d", len(h.last), len(h.samples), refMaxSamples)
	}
	if want := median(append(before, h.last...)) / refNominal.Seconds(); f2 != want {
		t.Fatalf("second item scaled by %v, want the median of the batches before and after it, %v", f2, want)
	}
	h.span(0)
	f4 := h.span(0)
	if want := median(h.samples[len(h.samples)-refWindow:]) / refNominal.Seconds(); f4 != want {
		t.Fatalf("short item scaled by %v, want the median of the last %d samples, %v", f4, refWindow, want)
	}
	if d := scale(3*time.Second, 1.5); d != 2*time.Second {
		t.Fatalf("scale(3s, 1.5) = %v", d)
	}
}

func TestBlockStatsScalesTimes(t *testing.T) {
	ws := make([]walked, warmBlock)
	for i := range ws {
		ws[i].Took = time.Duration(i+1) * time.Millisecond
		ws[i].start = time.Duration(i) * time.Millisecond
		ws[i].end = ws[i].start + ws[i].Took
	}
	b := blockStats(ws, 2)
	if !b.p99.OK() || b.p99.Beyond != warmBlock/100 {
		t.Fatalf("block p99 %+v breaks the ten-beyond rule", b.p99)
	}
	if b.p50.Value != float64(warmBlock/2)/2 {
		t.Fatalf("p50 %v ms, want the unscaled %d ms halved", b.p50.Value, warmBlock/2)
	}
	span := ws[len(ws)-1].end - ws[0].start
	if want := float64(warmBlock) / (span / 2).Seconds(); math.Abs(b.rate-want) > 1e-9*want {
		t.Fatalf("rate %v, want %v", b.rate, want)
	}
}
