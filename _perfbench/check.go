package main

import (
	"fmt"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/modelcheck"
)

const (
	// checkSetupBatch is how many one-run checks time the set-up in
	// each batch.
	checkSetupBatch = 15
	// checkWindow is how many consecutive executions share one latency
	// percentile window.
	checkWindow = 5000
)

// runCheckBounded exhausts the bidding protocol's interleavings at 2
// workers × 3 jobs — the configuration of the modelcheck acceptance
// test — once per eight seconds of budget (at least once). The
// checker's unit of work is one explored execution, so per-job metrics
// here are per explored run. The bounded space has no random inputs:
// the seed is accepted but every seed explores the same space.
func runCheckBounded(b *bench) (*outcome, error) {
	out := newOutcome()
	pol, _ := core.PolicyByName("bidding")
	bounds := modelcheck.Bounds{Workers: 2, Jobs: 3}

	type checkRun struct {
		res     *modelcheck.Result
		wall    time.Duration
		cpu     time.Duration
		perRun  []float64 // wall ms between consecutive executions
		storage storageCounts
	}
	check := func(traced bool) (checkRun, error) {
		var r checkRun
		p := pol
		if traced {
			p = tracePolicy(b.rec, p)
		}
		// Every worker state an execution builds, read and dropped once
		// the execution ends, for the storage counters.
		var states []*engine.WorkerState
		agent := p.NewAgent
		p.NewAgent = func(st *engine.WorkerState) engine.Agent {
			states = append(states, st)
			return agent(st)
		}
		last := time.Now()
		cfg := modelcheck.Config{
			Scenario: modelcheck.BoundedScenario(bounds, pol),
			Policy:   p,
			Progress: func(modelcheck.Stats) {
				now := time.Now()
				r.perRun = append(r.perRun, ms(now.Sub(last)))
				last = now
				for _, st := range states {
					s := st.Cache.Stats()
					r.storage.hits += s.Hits
					r.storage.misses += s.Misses
					r.storage.evictions += s.Evictions
					r.storage.dataMB += st.Link.DownloadedMB()
				}
				states = states[:0]
			},
		}
		c0, t0 := cpuTime(), time.Now()
		last = t0
		res, err := modelcheck.Check(cfg)
		if err != nil {
			return r, err
		}
		r.wall, r.cpu, r.res = time.Since(t0), cpuTime()-c0, res
		return r, nil
	}

	var runs []checkRun
	verify := func(r checkRun) {
		out.attempted += max(r.res.Stats.Runs, 1)
		switch {
		case r.res.Violation != nil:
			out.fail(r.res.Stats.Runs, "checker found a violation: %v", r.res.Violation)
		case !r.res.Exhausted:
			out.fail(r.res.Stats.Runs, "checker did not exhaust the space: %s", modelcheck.FormatStats(r.res.Stats))
		case len(runs) > 0 && r.res.Stats != runs[0].res.Stats:
			out.fail(r.res.Stats.Runs, "exploration differs between checks: %s vs %s",
				modelcheck.FormatStats(r.res.Stats), modelcheck.FormatStats(runs[0].res.Stats))
		}
	}

	if b.traced {
		// One untraced check is the reference: the traced checks must
		// explore exactly the same space, and their time over its time
		// is the trace overhead.
		r, err := check(false)
		if err != nil {
			return nil, err
		}
		verify(r)
		runs = append(runs, r)
		b.rec.reset()
		b.profile.start()
	}
	// A fixed number of checks per budget (one per eight seconds, at least
	// one) keeps the work, and so peak RSS, independent of speed.
	checks := max(1, int(b.budget/(8*time.Second)))
	if b.traced {
		checks++
	}
	// Set-up — building the scenario and executing its first run — is
	// timed in batches before, between and after the checks: it takes
	// under a millisecond, and one batch would sample a single phase
	// of the host's load.
	var setups []float64
	setupBatch := func() error {
		for i := 0; i < checkSetupBatch && !b.traced; i++ {
			t0 := time.Now()
			sc := modelcheck.BoundedScenario(bounds, pol)
			if _, err := modelcheck.Check(modelcheck.Config{Scenario: sc, Policy: pol, MaxRuns: 1}); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	for len(runs) < checks {
		if err := setupBatch(); err != nil {
			return nil, err
		}
		r, err := check(b.traced)
		if err != nil {
			return nil, err
		}
		verify(r)
		runs = append(runs, r)
	}
	if err := setupBatch(); err != nil {
		return nil, err
	}

	timed := runs
	if b.traced {
		b.profile.stop()
		timed = runs[1:]
	}
	var walls, cpus, perRun []float64
	var windows [][]float64
	for _, r := range timed {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, float64(r.cpu)/float64(r.res.Stats.Runs)/float64(time.Millisecond))
		perRun = append(perRun, r.perRun...)
		windows = append(windows, chunks(r.perRun, checkWindow)...)
	}
	ref := runs[0]
	n := float64(ref.res.Stats.Runs)
	if !b.traced {
		out.set("setup_s", median(setups))
		out.set("peak_rss_mb", peakRSSMB())
		out.set("cpu_ms_per_job", median(cpus))
		out.set("jobs_per_s", n/median(walls))
		out.set("job_latency_p50_ms", windowed(windows, 50))
		out.set("job_latency_p90_ms", windowed(windows, 90))
		out.set("makespan_s", median(walls))
		out.set("data_load_mb_per_job", ref.storage.dataMB/n)
		out.set("cache_miss_ratio", ratio(float64(ref.storage.misses), float64(ref.storage.hits+ref.storage.misses)))
		fmt.Printf("info: %d checks; %s; %d per-run latency samples, p99.9 %.3f ms\n",
			len(runs), modelcheck.FormatStats(ref.res.Stats), len(perRun), percentile(perRun, 99.9))
		return out, nil
	}

	st := ref.res.Stats
	var tracedJobs float64
	for _, r := range timed {
		tracedJobs += float64(r.res.Stats.Runs)
	}
	b.rec.report(out, tracedJobs)
	out.set("modelcheck.runs", float64(st.Runs))
	out.set("modelcheck.states", float64(st.States))
	out.set("modelcheck.decisions_per_run", float64(st.Decisions)/n)
	out.set("modelcheck.dedup_ratio", ratio(float64(st.Deduped), float64(st.Deduped+st.States)))
	out.set("modelcheck.us_per_decision", ref.wall.Seconds()*1e6/float64(st.Decisions))
	out.set("storage.hit_ratio", ratio(float64(ref.storage.hits), float64(ref.storage.hits+ref.storage.misses)))
	out.set("storage.evictions_per_job", float64(ref.storage.evictions)/n)
	out.set("bench.trace_overhead_ratio", median(walls)/ref.wall.Seconds())
	return out, nil
}
