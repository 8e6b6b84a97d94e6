package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Layers that CPU samples are attributed to: the repository's own
// packages by import path, plus groups of Go runtime and standard
// library functions. Everything else (stats, layout, mem, this
// benchmark's own hooks, the rest of the runtime, syscalls) is
// cpu.other, so the shares sum to 1.
var repoLayers = map[string]bool{
	"sim": true, "trace": true, "gpu": true, "cache": true, "xbar": true,
	"protect": true, "core": true, "dram": true,
	"serve": true, "store": true, "bench": true, "obs": true,
}

var funcGroups = []struct {
	layer    string
	prefixes []string
}{
	{"go_map", []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.aeshash",
		"runtime.strhash", "runtime.memequal", "runtime.makemap"}},
	{"go_malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.rawbyteslice", "runtime.rawstring", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*fixalloc)", "runtime.nextFreeFast",
		"runtime.(*mspan).nextFreeIndex", "runtime.(*mspan).refillAllocCache", "runtime.(*mspan).init",
		"runtime.(*mspan).writeHeapBits", "runtime.heapSetType", "runtime.memclrNoHeapPointers",
		"runtime.deductAssistCredit", "runtime.publicationBarrier", "runtime.roundupsize"}},
	{"go_gc", []string{"runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.findObject",
		"runtime.markBits", "runtime.markroot", "runtime.scanblock", "runtime.scanstack",
		"runtime.scanframeworker", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*gcControllerState)",
		"runtime.(*gcCPULimiterState)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.sweepone",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers",
		"runtime.(*mspan).typePointersOf", "runtime.(*mspan).heapBits", "runtime.(*mspan).markBitsForIndex",
		"runtime.spanOf", "runtime.pageIndexOf", "runtime.heapBitsForAddr"}},
	{"net_http", []string{"net/http.", "net/textproto.", "net."}},
	{"json", []string{"encoding/json."}},
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "cachecraft/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if repoLayers[pkg] {
			return pkg
		}
		return "other"
	}
	for _, g := range funcGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(fn, p) {
				return g.layer
			}
		}
	}
	return "other"
}

// A `pprof -top -unit=ms` row: flat, flat%, sum%, cum, cum%, function.
var topRow = regexp.MustCompile(`^\s*([0-9.]+)(?:ms)?\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(?:ms)?\s+[0-9.]+%\s+(.+?)(?: \(inline\))?$`)

// parseTop sums flat milliseconds per layer from `go tool pprof -top`
// output.
func parseTop(out []byte) (map[string]float64, error) {
	ms := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := topRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		ms[layerOf(m[2])] += v
	}
	return ms, sc.Err()
}

// cpuShares merges the CPU profiles in dir with `go tool pprof` and
// returns each layer's flat share of the samples as cpu.<layer>, plus
// the sampled CPU seconds.
func cpuShares(goTool, dir string) (map[string]float64, float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if err != nil || len(files) == 0 {
		return nil, 0, fmt.Errorf("no CPU profiles in %s", dir)
	}
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, files...)
	var stderr bytes.Buffer
	cmd := exec.Command(goTool, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	ms, err := parseTop(out)
	if err != nil {
		return nil, 0, err
	}
	total := 0.0
	for _, v := range ms {
		total += v
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profiles in %s hold no samples", dir)
	}
	shares := map[string]float64{}
	for name := range perLayerUnits {
		if layer, ok := strings.CutPrefix(name, "cpu."); ok && perLayerUnits[name] == "fraction" {
			shares[name] = ms[layer] / total
		}
	}
	return shares, total / 1000, nil
}
