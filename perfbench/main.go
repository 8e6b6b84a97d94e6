// Command perfbench is the repository benchmark. One run simulates one
// named workload for a time budget and prints, as its last stdout line,
// a JSON object with the run's correctness tally and metrics:
//
//	go run . -workload irregular -seed 42 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 it makes a separate traced run and reports the
// per-layer metrics. -record re-simulates the recorded cells and
// prints a fresh digest table. README.md lists every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metrics maps metric names to values; units come from the catalog.
type metrics map[string]float64

// units of every metric the benchmark reports. BENCHMARK.json's
// end_to_end and per_layer lists must name exactly these (a test
// checks).
var endToEndUnits = map[string]string{
	"wall_s":            "s",
	"sector_reqs_per_s": "1/s",
	"setup_s":           "s",
	"alloc_mb":          "MB",
	"max_rss_mb":        "MB",
	"req_per_s":         "1/s",
	"cold_p50_ms":       "ms",
	"cold_p75_ms":       "ms",
	"warm_p50_ms":       "ms",
	"warm_p99_ms":       "ms",
}

var workloadNames = append(append([]string(nil), simWorkloadNames...), "serve_mix")

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement budget of a timed run in seconds (a traced run makes one untraced and one traced pass)")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for stores and profiles (created; cleaned after)")
	goTool := flag.String("go", "go", "go command, for `go tool pprof` in traced runs")
	rec := flag.Bool("record", false, "simulate every recorded cell and print a fresh digest table")
	flag.Parse()

	if *rec {
		if err := record(os.Stdout); err != nil {
			logf("record: %v", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *workDir, *goTool); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, budget time.Duration, traced bool, workDir, goTool string) error {
	known := false
	for _, n := range workloadNames {
		known = known || n == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	tbl, err := loadDigests()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	if workload != "serve_mix" {
		// One simulation runs on one thread; with a single P the
		// garbage collector's work lands on that thread too, so a
		// simulation workload's time does not depend on how busy the
		// host keeps the other CPU.
		runtime.GOMAXPROCS(1)
	}
	var (
		m     metrics
		t     tally
		units map[string]string
	)
	switch {
	case traced:
		m, t, err = runTraced(workload, seed, tbl, workDir, goTool)
		units = perLayerUnits
	case workload == "serve_mix":
		m, t, err = runServe(seed, budget, tbl, workDir)
		units = endToEndUnits
	default:
		m, t, err = runSim(workload, seed, budget, tbl)
		units = endToEndUnits
	}
	if err != nil {
		return err
	}
	if !traced {
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		m["max_rss_mb"] = rss / 1e6
	}
	for _, e := range t.errs {
		logf("FAIL %s", e)
	}
	out := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricOut{},
	}
	for name, unit := range units {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", name)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb * 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
