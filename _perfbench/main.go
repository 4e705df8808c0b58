// Command perfbench is the repository benchmark. It runs one of four
// workloads for a fixed wall-clock budget, checks the outputs, and
// prints one JSON result line: the end-to-end metrics from an untraced
// run, or (with -trace 1) the per-layer metrics from a run instrumented
// by decorators around the program's public layer boundaries.
//
// Usage, from the repository root (run.sh builds and execs this):
//
//	bash _perfbench/run.sh --workload sim-paper --seed 3 --seconds 25 --trace 0
//
// See README.md in this directory for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// bench is the per-invocation context every workload receives.
type bench struct {
	seed    int64
	budget  time.Duration
	traced  bool
	rec     *recorder   // nil on untraced runs
	profile *cpuProfile // nil on untraced runs
}

// workloads maps each BENCHMARK.json workload name to its runner.
var workloads = map[string]func(*bench) (*outcome, error){
	"sim-paper":     runSimPaper,
	"sim-fleet":     runSimFleet,
	"tcp-serve":     runTCPServe,
	"check-bounded": runCheckBounded,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "wall-clock measurement budget")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		return err
	}
	known := false
	for _, w := range cat.Workloads {
		known = known || w.Name == name
	}
	runner, ok := workloads[name]
	if !ok || !known {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	b := &bench{
		seed:   seed,
		budget: time.Duration(seconds) * time.Second,
		traced: traced,
	}
	if traced {
		b.rec = newRecorder()
		b.profile = &cpuProfile{}
	}
	out, err := runner(b)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
		for mod, share := range b.profile.shares() {
			out.set("cpu."+mod, share)
		}
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		if err := b.rec.writeSpans(filepath.Join(dir, "trace"), fmt.Sprintf("%s-seed%d", name, seed)); err != nil {
			return err
		}
	}
	res := result{Metrics: make(map[string]metric, len(defs))}
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.Name] = true
	}
	for k := range out.values {
		if !listed[k] {
			return fmt.Errorf("measured metric %s is not in the catalog", k)
		}
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	res.Attempted = out.attempted
	res.Failed = out.failed
	res.Correct = out.failed == 0 && len(out.problems) == 0 && out.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
