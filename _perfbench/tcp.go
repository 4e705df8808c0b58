package main

import (
	"fmt"
	"math/rand"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
	"crossflow/internal/workload"
)

// tcp-serve: the deployment shape in one process — a loopback
// transport.Serve broker, a cluster master and eight workers, every
// node on its own TCP client. Keeping the fleet in one process (rather
// than worker OS processes) means a 1–2 core host measures the program,
// not process scheduling.
const (
	tcpWorkers    = 8
	tcpScale      = 1000 // engine clock compression: 1 ms of wall time is 1 s of clock time
	tcpKeys       = 64
	tcpJobMB      = 4
	tcpCacheMB    = 48 // 12 of the 64 keys per worker: locality matters, evictions happen
	tcpRate       = 1000
	tcpWarmupJobs = 1000
	tcpBurstJobs  = 2500
	tcpBursts     = 16
	tcpWindow     = 2 * time.Second // steady-phase latency percentile window
)

// tcpFleet is one running deployment.
type tcpFleet struct {
	srv    *transport.Server
	clk    *vclock.Real
	master *engine.Master
	conns  []*transport.Client
	states []*engine.WorkerState
	stages *stageTracer // traced fleets only
}

// startFleet stands the deployment up and returns once every worker
// has registered. A non-nil rec decorates the master's allocator and
// port and every worker's agent and port.
func startFleet(seed int64, rec *recorder) (*tcpFleet, error) {
	srv, err := transport.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	f := &tcpFleet{srv: srv, clk: vclock.NewScaledReal(tcpScale)}
	dial := func(name string) (*transport.Client, error) {
		c, err := transport.DialOptions(srv.Addr(), name, 0, f.clk, transport.Options{Codec: "binary"})
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", name, err)
		}
		f.conns = append(f.conns, c)
		return c, nil
	}
	pol, _ := core.PolicyByName("bidding")
	mc, err := dial(engine.MasterName)
	if err != nil {
		f.close()
		return nil, err
	}
	alloc := pol.NewAllocator()
	var port engine.Port = mc
	if rec != nil {
		var owner *tracedAlloc
		alloc, owner = traceAllocator(rec, alloc)
		f.stages = newStageTracer()
		port = &contestPort{tracedPort: tracePort(rec, mc, owner), clk: f.clk, stages: f.stages}
		sameCapabilities(mc, port, portCaps)
	}
	f.master = engine.NewClusterMaster(f.clk, port, alloc, tcpWorkers, rand.New(rand.NewSource(seed)))
	f.clk.Go(f.master.Run)
	for i := 0; i < tcpWorkers; i++ {
		name := fmt.Sprintf("w%03d", i)
		c, err := dial(name)
		if err != nil {
			f.close()
			return nil, err
		}
		st := engine.NewWorkerState(engine.WorkerSpec{
			Name:    name,
			Net:     netsim.Speed{BaseMBps: 200},
			RW:      netsim.Speed{BaseMBps: 800},
			CacheMB: tcpCacheMB,
			Seed:    seed*tcpWorkers + int64(i) + 1,
		}, nil)
		f.states = append(f.states, st)
		agent := pol.NewAgent(st)
		var wport engine.Port = c
		if rec != nil {
			ta := traceAgent(rec, agent)
			agent, wport = ta, tracePort(rec, c, ta)
		}
		engine.NewWorker(f.clk, wport, workload.Workflow(), st, nil, agent).Start()
	}
	ready := make(chan struct{})
	go func() { f.master.WaitReady(); close(ready) }()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		f.close()
		return nil, fmt.Errorf("fleet did not register within 30s")
	}
	return f, nil
}

// close stops the master (which broadcasts the stop to the fleet),
// waits for every node goroutine, and tears the connections down.
func (f *tcpFleet) close() {
	if f.master != nil {
		f.master.Shutdown()
		done := make(chan struct{})
		go func() { f.clk.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
		}
	}
	for _, c := range f.conns {
		c.Close()
	}
	f.srv.Close()
}

// contestPort is the master's traced port: besides the port spans it
// stamps each job's contest instant (its bid request going out) on the
// stage tracer, since the TCP deployment's master takes no Tracer.
type contestPort struct {
	*tracedPort
	clk    vclock.Clock
	stages *stageTracer
}

func (p *contestPort) PublishAsync(topic string, payload any) func() int {
	p.stamp(payload)
	return p.tracedPort.PublishAsync(topic, payload)
}

func (p *contestPort) Publish(topic string, payload any) int {
	p.stamp(payload)
	return p.tracedPort.Publish(topic, payload)
}

func (p *contestPort) stamp(payload any) {
	if req, ok := payload.(engine.MsgBidRequest); ok {
		p.stages.Trace(engine.TraceEvent{At: p.clk.Now(), Kind: engine.TraceContest, JobID: req.Job.ID})
	}
}

// wallClock converts the fleet clock's instants to wall time.
type wallClock struct {
	wall0 time.Time
	clk0  time.Time
}

func newWallClock(clk vclock.Clock) wallClock { return wallClock{wall0: time.Now(), clk0: clk.Now()} }

func (w wallClock) wall(t time.Time) time.Time {
	return w.wall0.Add(time.Duration(float64(t.Sub(w.clk0)) / tcpScale))
}

// tcpJobs generates a phase's jobs from the seed: keys drawn uniformly
// from the 64-key space.
func tcpJobs(rng *rand.Rand, phase string, n int) []*engine.Job {
	jobs := make([]*engine.Job, n)
	for i := range jobs {
		jobs[i] = &engine.Job{
			ID:         fmt.Sprintf("%s-%06d", phase, i),
			Stream:     workload.Stream,
			DataKey:    fmt.Sprintf("tcp/k%02d", rng.Intn(tcpKeys)),
			DataSizeMB: tcpJobMB,
		}
	}
	return jobs
}

// checkSession requires every submitted job exactly once in the
// session's records, finished, and none failed.
func checkSession(out *outcome, phase string, jobs []*engine.Job, rep *engine.Report) {
	out.attempted += len(jobs)
	if rep == nil {
		out.fail(len(jobs), "%s: session produced no report", phase)
		return
	}
	bad := 0
	for _, j := range jobs {
		if rec := rep.Records[j.ID]; rec == nil || rec.Status != engine.StatusFinished {
			bad++
		}
	}
	if extra := len(rep.Records) - len(jobs); extra != 0 {
		bad += max(extra, -extra)
	}
	bad += rep.JobsFailed
	if bad > 0 {
		out.fail(bad, "%s: %d of %d jobs not finished exactly once (%d failed)", phase, bad, len(jobs), rep.JobsFailed)
	}
}

// burst submits jobs back to back and returns the report and the wall
// time from the first submit to the session's completion.
func (f *tcpFleet) burst(id string, jobs []*engine.Job) (*engine.Report, time.Duration) {
	sess := f.master.OpenSession(id, workload.Workflow())
	t0 := time.Now()
	for _, j := range jobs {
		sess.Submit(j)
	}
	sess.Close()
	rep := sess.Wait()
	return rep, time.Since(t0)
}

type storageCounts struct {
	hits, misses, evictions int
	dataMB                  float64
}

func (f *tcpFleet) storage() storageCounts {
	var c storageCounts
	for _, st := range f.states {
		s := st.Cache.Stats()
		c.hits += s.Hits
		c.misses += s.Misses
		c.evictions += s.Evictions
		c.dataMB += st.Link.DownloadedMB()
	}
	return c
}

func runTCPServe(b *bench) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(b.seed))
	warmJobs := func() []*engine.Job {
		return tcpJobs(rand.New(rand.NewSource(b.seed)), "warmup", tcpWarmupJobs)
	}
	warmUp := func(f *tcpFleet) {
		warm := warmJobs()
		rep, _ := f.burst("warmup", warm)
		checkSession(out, "warm-up", warm, rep)
	}

	// Traced runs push one probe burst through an untraced fleet and,
	// after the same warm-up, through the traced one: the reports must
	// match, the wall-time ratio is the trace overhead, and the traced
	// probe gives the burst stage split.
	var plain, tracedProbe *engine.Report
	var plainWall, probeWall time.Duration
	var burstStages [3][]float64
	probe := tcpJobs(rand.New(rand.NewSource(b.seed+1)), "probe", tcpBurstJobs)
	if b.traced {
		f, err := startFleet(b.seed, nil)
		if err != nil {
			return nil, err
		}
		warmUp(f)
		plain, plainWall = f.burst("probe", probe)
		f.close()
		checkSession(out, "untraced probe burst", probe, plain)
	}

	t0 := time.Now()
	f, err := startFleet(b.seed, b.rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	setups := []float64{time.Since(t0).Seconds()}

	warmUp(f)
	if b.traced {
		tracedProbe, probeWall = f.burst("probe", probe)
		checkSession(out, "traced probe burst", probe, tracedProbe)
		feedRecords(f.stages, tracedProbe)
		burstStages[0], burstStages[1], burstStages[2] = f.stages.stageSamples(tcpScale)
		b.rec.reset()
		f.stages.reset()
		b.profile.start()
	}

	// Steady phase: an open loop at tcpRate jobs/s with exponential
	// gaps drawn from the seed, for about 60% of the budget. Latency
	// runs from each job's due time, so generator stalls count against
	// the system, and the generator's own lateness is reported.
	steadyFor := b.budget * 6 / 10
	n := int(steadyFor.Seconds() * tcpRate)
	jobs := tcpJobs(rng, "steady", n)
	due := make([]time.Duration, n)
	var at time.Duration
	for i := range due {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / tcpRate)
		due[i] = at
	}
	st0 := f.storage()
	wire0 := f.srv.WireStats()
	sess := f.master.OpenSession("steady", workload.Workflow())
	wc := newWallClock(f.clk)
	cpu0 := cpuTime()
	var lateMax time.Duration
	for i, j := range jobs {
		when := wc.wall0.Add(due[i])
		if d := time.Until(when); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(when); late > lateMax {
			lateMax = late
		}
		sess.Submit(j)
	}
	sess.Close()
	steady := sess.Wait()
	steadyCPU := cpuTime() - cpu0
	wire1 := f.srv.WireStats()
	checkSession(out, "steady", jobs, steady)
	// Latencies in due-time order, grouped in windows of tcpWindow.
	var lat []float64
	var windows [][]float64
	var steadyMakespan time.Duration // first due time to last finish
	if steady != nil {
		for i, j := range jobs {
			if rec := steady.Records[j.ID]; rec != nil && rec.Status == engine.StatusFinished {
				if d := wc.wall(rec.Finished).Sub(wc.wall0.Add(due[0])); d > steadyMakespan {
					steadyMakespan = d
				}
				l := ms(wc.wall(rec.Finished).Sub(wc.wall0.Add(due[i])))
				lat = append(lat, l)
				if w := int(due[i] / tcpWindow); w < len(windows) {
					windows[w] = append(windows[w], l)
				} else {
					windows = append(windows, []float64{l})
				}
			}
		}
		// A short last window joins the one before it.
		if n := len(windows); n > 1 && len(windows[n-1]) < tcpRate*int(tcpWindow/time.Second)/2 {
			windows[n-2] = append(windows[n-2], windows[n-1]...)
			windows = windows[:n-1]
		}
	}
	var steadyStages [3][]float64
	if b.traced && steady != nil {
		feedRecords(f.stages, steady)
		steadyStages[0], steadyStages[1], steadyStages[2] = f.stages.stageSamples(tcpScale)
		f.stages.reset()
	}
	if b.traced && steady != nil {
		// Before the bursts add their own calls.
		b.rec.report(out, float64(steady.JobsCompleted))
	}

	// Burst phase: a fixed number of back-to-back sessions on the same
	// warm fleet (a fixed count keeps the master's record tables, and so
	// peak RSS, independent of speed).
	var rates, burstCPU []float64
	var burstJobs int
	for i := 0; i < tcpBursts; i++ {
		batch := tcpJobs(rng, fmt.Sprintf("burst%d", i), tcpBurstJobs)
		c0 := cpuTime()
		rep, wall := f.burst(fmt.Sprintf("burst%d", i), batch)
		burstCPU = append(burstCPU, float64(cpuTime()-c0)/float64(len(batch))/float64(time.Millisecond))
		checkSession(out, fmt.Sprintf("burst %d", i), batch, rep)
		rates = append(rates, float64(len(batch))/wall.Seconds())
		burstJobs += len(batch)
		// One more set-up sample after each burst, on the warm process
		// while the measured fleet idles: standing a fleet up is
		// milliseconds of wake-ups, so samples taken back to back would
		// all see one phase of the host's load.
		if !b.traced {
			t0 := time.Now()
			g, err := startFleet(b.seed, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			g.close()
		}
	}
	st1 := f.storage()

	if !b.traced {
		jobsDone := float64(len(jobs) + burstJobs)
		out.set("setup_s", median(setups))
		out.set("peak_rss_mb", peakRSSMB())
		out.set("cpu_ms_per_job", median(burstCPU))
		out.set("jobs_per_s", median(rates))
		out.set("job_latency_p50_ms", windowed(windows, 50))
		out.set("job_latency_p90_ms", windowed(windows, 90))
		out.set("makespan_s", steadyMakespan.Seconds())
		out.set("data_load_mb_per_job", (st1.dataMB-st0.dataMB)/jobsDone)
		out.set("cache_miss_ratio", ratio(float64(st1.misses-st0.misses), float64(st1.hits+st1.misses-st0.hits-st0.misses)))
		fmt.Printf("info: steady %d jobs, %.3f cpu ms/job, %d latency samples in %d windows; whole phase p50 %.3f p99 %.3f p99.9 %.3f ms; generator late max %.3f ms; wire %.0f B/job; %d bursts\n",
			len(jobs), float64(steadyCPU)/float64(len(jobs))/float64(time.Millisecond), len(lat), len(windows),
			percentile(lat, 50), percentile(lat, 99), percentile(lat, 99.9), ms(lateMax),
			float64(wire1.BytesIn+wire1.BytesOut-wire0.BytesIn-wire0.BytesOut)/float64(len(jobs)), len(rates))
		return out, nil
	}

	b.profile.stop()
	if !sameShape(plain, tracedProbe) {
		out.fail(len(probe), "traced probe burst report differs from the untraced one")
	}
	setStages(out, "engine.", steadyStages[0], steadyStages[1], steadyStages[2])
	setStages(out, "engine.burst.", burstStages[0], burstStages[1], burstStages[2])
	if steady != nil {
		sj := float64(steady.JobsCompleted)
		out.set("engine.contest_msgs_per_job", float64(steady.ContestMsgs)/sj)
		out.set("engine.bids_per_job", float64(steady.Bids)/sj)
		out.set("engine.offer_accept_ratio", ratio(float64(steady.Offers-steady.Rejections), float64(steady.Offers)))
		out.set("engine.redispatched", float64(steady.Redispatched))
		out.set("engine.fallbacks", float64(steady.Fallbacks))
		out.set("transport.wire_bytes_per_job", float64(wire1.BytesIn+wire1.BytesOut-wire0.BytesIn-wire0.BytesOut)/sj)
	}
	jobsDone := float64(len(jobs) + burstJobs)
	out.set("storage.hit_ratio", ratio(float64(st1.hits-st0.hits), float64(st1.hits+st1.misses-st0.hits-st0.misses)))
	out.set("storage.evictions_per_job", float64(st1.evictions-st0.evictions)/jobsDone)
	out.set("vclock.virtual_per_wall", tcpScale)
	out.set("bench.generator_late_ms.max", ms(lateMax))
	out.set("bench.trace_overhead_ratio", probeWall.Seconds()/plainWall.Seconds())
	measureWire(out)
	return out, nil
}

// feedRecords replays a session report's per-job instants (injection,
// allocation, finish) into a stage tracer.
func feedRecords(t *stageTracer, rep *engine.Report) {
	if rep == nil {
		return
	}
	for id, rec := range rep.Records {
		t.Trace(engine.TraceEvent{At: rec.Injected, Kind: engine.TraceInjected, JobID: id})
		t.Trace(engine.TraceEvent{At: rec.Queued, Kind: engine.TraceAssigned, JobID: id})
		if rec.Status == engine.StatusFinished {
			t.Trace(engine.TraceEvent{At: rec.Finished, Kind: engine.TraceFinished, JobID: id})
		}
	}
}

// sameShape compares the timing-independent parts of two reports of
// the same job batch on a real clock: which jobs finished, and the
// failure, redispatch and contest counts.
func sameShape(a, b *engine.Report) bool {
	if a == nil || b == nil {
		return false
	}
	if a.JobsCompleted != b.JobsCompleted || a.JobsFailed != b.JobsFailed ||
		a.Redispatched != b.Redispatched || a.Contests != b.Contests || len(a.Records) != len(b.Records) {
		return false
	}
	for id, ra := range a.Records {
		rb := b.Records[id]
		if rb == nil || ra.Status != rb.Status {
			return false
		}
	}
	return true
}
