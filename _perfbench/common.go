package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// catalog is the metric list BENCHMARK.json declares. The benchmark
// reads it from the checkout root, so the file is the single source of
// truth for names and units: a workload that fails to measure an
// end-to-end metric is an error, and a per-layer metric a workload does
// not exercise reads 0 (its layer was idle).
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadCatalog(path string) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric catalog: %w", err)
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parse metric catalog %s: %w", path, err)
	}
	return &c, nil
}

// result is the one-line JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back: the operation tally, any
// output-check failures, and every metric it measured by name.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed output check covering n operations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// windowed returns the median, over groups of samples taken in
// consecutive windows, of each group's p-th percentile. A stall that
// spoils one window moves the result by at most one rank, where it
// would drag a whole-run tail percentile with it.
func windowed(groups [][]float64, p float64) float64 {
	var ps []float64
	for _, g := range groups {
		ps = append(ps, percentile(g, p))
	}
	return median(ps)
}

// chunks splits xs into consecutive groups of n (the last group takes
// the remainder when it holds at least n/2 samples).
func chunks(xs []float64, n int) [][]float64 {
	var out [][]float64
	for len(xs) >= n+n/2 {
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	if len(xs) >= n/2 || len(out) == 0 {
		out = append(out, xs)
	}
	return out
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
