package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
)

// The traced run measures each layer from outside, by decorating the
// values the program already accepts at its public boundaries: the
// master's engine.Allocator (and the engine.AllocCtx it hands back),
// each worker's engine.Agent, the TCP engine.Port of every node, and
// an engine.Tracer. Every decorated call becomes a span; spans stay in
// memory and are written out once the run ends.

// maxSpans caps retained spans; aggregates keep counting past it.
const maxSpans = 200_000

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans and the per-layer aggregates derived from
// them. It is shared by every decorator of one run.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu         sync.Mutex
	spans      []span
	dropped    int
	allocSelf  time.Duration
	allocCalls int
	agentSelf  time.Duration
	sendUS     []float64
	ackMS      []float64
	frames     int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

func (r *recorder) span(id, parent int64, name, job string, start, end time.Time) span {
	return span{ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
}

// reset clears everything recorded so far, so a workload can exclude
// its warm-up from the traced numbers.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.dropped = nil, 0
	r.allocSelf, r.allocCalls, r.agentSelf = 0, 0, 0
	r.sendUS, r.ackMS, r.frames = nil, nil, 0
}

// report sets the per-layer metrics the decorators aggregate, per
// completed job.
func (r *recorder) report(out *outcome, jobs float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out.set("core.alloc_us_per_job", ratio(float64(r.allocSelf)/float64(time.Microsecond), jobs))
	out.set("core.alloc_calls_per_job", ratio(float64(r.allocCalls), jobs))
	out.set("core.agent_us_per_job", ratio(float64(r.agentSelf)/float64(time.Microsecond), jobs))
	out.set("transport.send_us.p50", percentile(r.sendUS, 50))
	out.set("transport.send_us.p99", percentile(r.sendUS, 99))
	out.set("transport.ack_ms.p50", percentile(r.ackMS, 50))
	out.set("transport.frames_per_job", ratio(float64(r.frames), jobs))
}

// writeSpans writes the retained spans as JSON lines to dir/base.spans.jsonl.
func (r *recorder) writeSpans(dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	path := filepath.Join(dir, base+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("span output: %w", err)
		}
	}
	dropped := r.dropped
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans beyond the %d cap were counted but not written\n", dropped, maxSpans)
	}
	return nil
}

// --- capability preservation -------------------------------------------------

// The engine discovers optional behaviour by type assertion, so a
// decorator must expose exactly the optional interfaces of the value it
// wraps: gaining one changes the protocol path (a pipelined publish on
// a port that had none), losing one silently disables a feature. These
// mirror the engine's and core's unexported assertion targets.
type (
	contestSizer interface {
		ContestSized(engine.AllocCtx, string, int)
	}
	asyncPublisher interface {
		PublishAsync(topic string, payload any) func() int
	}
	multiSender  interface{ SendMulti([]string, any) int }
	deregisterer interface{ Deregister() }
	disconnecter interface{ Disconnect() }
	downer       interface{ Down() bool }
	fallbackCtr  interface{ CountFallback() }
)

// capability is one optional interface the program discovers by type
// assertion at a boundary.
type capability struct {
	name string
	has  func(any) bool
}

func capOf[T any](name string) capability {
	return capability{name, func(v any) bool { _, ok := v.(T); return ok }}
}

// The optional interfaces each decorated boundary is asserted for.
var (
	allocCaps = []capability{capOf[contestSizer]("contestSizer"), capOf[engine.StateDigester]("StateDigester")}
	ctxCaps   = []capability{capOf[fallbackCtr]("CountFallback")}
	portCaps  = []capability{capOf[asyncPublisher]("asyncPublisher"), capOf[multiSender]("multiSender"),
		capOf[deregisterer]("deregisterer"), capOf[disconnecter]("disconnecter"), capOf[downer]("Down")}
	agentCaps []capability // the engine asserts nothing on agents
)

// sameCapabilities panics when a decorator's set of optional
// interfaces differs from its inner value's: that is a bug in this
// file, and a run with it would measure a different protocol path.
func sameCapabilities(inner, outer any, caps []capability) {
	for _, c := range caps {
		if a, b := c.has(inner), c.has(outer); a != b {
			panic(fmt.Sprintf("perfbench: decorator %T has %s=%t, wrapped %T has %t", outer, c.name, b, inner, a))
		}
	}
}

// --- allocator and AllocCtx ----------------------------------------------------

type openSpan struct {
	id    int64
	start time.Time
	child time.Duration // time inside decorated calls made from this span
}

// tracedAlloc decorates a master-side engine.Allocator. The master
// calls it from its single loop goroutine, so the open-span stack needs
// no lock; cur mirrors the innermost open span for the master's port
// decorator.
type tracedAlloc struct {
	inner engine.Allocator
	rec   *recorder
	open  []openSpan
	cur   atomic.Int64

	ctxIn  engine.AllocCtx
	ctxOut engine.AllocCtx
}

func (a *tracedAlloc) push() {
	id := a.rec.newID()
	a.open = append(a.open, openSpan{id: id, start: time.Now()})
	a.cur.Store(id)
}

// pop closes the innermost span and returns it, its end and its
// parent's ID, crediting its duration to that parent's child time.
func (a *tracedAlloc) pop() (openSpan, time.Time, int64) {
	end := time.Now()
	o := a.open[len(a.open)-1]
	a.open = a.open[:len(a.open)-1]
	var parent int64
	if n := len(a.open); n > 0 {
		a.open[n-1].child += end.Sub(o.start)
		parent = a.open[n-1].id
	}
	a.cur.Store(parent)
	return o, end, parent
}

// callback runs one Allocator event and records its self time.
func (a *tracedAlloc) callback(name, job string, ctx engine.AllocCtx, f func(engine.AllocCtx)) {
	a.push()
	f(a.wrapCtx(ctx))
	o, end, parent := a.pop()
	a.rec.mu.Lock()
	a.rec.allocSelf += end.Sub(o.start) - o.child
	a.rec.allocCalls++
	a.rec.add(a.rec.span(o.id, parent, "core."+name, job, o.start, end))
	a.rec.mu.Unlock()
}

// ctxCall times one call the allocator makes back into the engine.
func (a *tracedAlloc) ctxCall(name, job string, f func()) {
	a.push()
	f()
	o, end, parent := a.pop()
	a.rec.mu.Lock()
	a.rec.add(a.rec.span(o.id, parent, "engine."+name, job, o.start, end))
	a.rec.mu.Unlock()
}

// parentOf implements spanOwner for the master's port: master port
// calls happen on the loop goroutine, inside the ctx span that caused
// them, whose duration already covers them.
func (a *tracedAlloc) parentOf(any) (int64, func(time.Duration)) { return a.cur.Load(), nil }

func (a *tracedAlloc) wrapCtx(ctx engine.AllocCtx) engine.AllocCtx {
	if ctx == a.ctxIn && a.ctxOut != nil {
		return a.ctxOut
	}
	base := &tracedCtx{inner: ctx, a: a}
	var out engine.AllocCtx = base
	if fc, ok := ctx.(fallbackCtr); ok {
		out = &tracedCtxFallback{tracedCtx: base, fc: fc}
	}
	sameCapabilities(ctx, out, ctxCaps)
	a.ctxIn, a.ctxOut = ctx, out
	return out
}

func (a *tracedAlloc) Name() string { return a.inner.Name() }
func (a *tracedAlloc) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	a.callback("JobReady", job.ID, ctx, func(c engine.AllocCtx) { a.inner.JobReady(c, job) })
}
func (a *tracedAlloc) BidReceived(ctx engine.AllocCtx, bid engine.MsgBid) {
	a.callback("BidReceived", bid.JobID, ctx, func(c engine.AllocCtx) { a.inner.BidReceived(c, bid) })
}
func (a *tracedAlloc) BidWindowExpired(ctx engine.AllocCtx, jobID string) {
	a.callback("BidWindowExpired", jobID, ctx, func(c engine.AllocCtx) { a.inner.BidWindowExpired(c, jobID) })
}
func (a *tracedAlloc) OfferRejected(ctx engine.AllocCtx, jobID, worker string) {
	a.callback("OfferRejected", jobID, ctx, func(c engine.AllocCtx) { a.inner.OfferRejected(c, jobID, worker) })
}
func (a *tracedAlloc) WorkerIdle(ctx engine.AllocCtx, req engine.MsgRequestJob) {
	a.callback("WorkerIdle", "", ctx, func(c engine.AllocCtx) { a.inner.WorkerIdle(c, req) })
}
func (a *tracedAlloc) JobFinished(ctx engine.AllocCtx, jobID, worker string) {
	a.callback("JobFinished", jobID, ctx, func(c engine.AllocCtx) { a.inner.JobFinished(c, jobID, worker) })
}
func (a *tracedAlloc) WorkerLost(ctx engine.AllocCtx, worker string, inflight []*engine.Job) {
	a.callback("WorkerLost", "", ctx, func(c engine.AllocCtx) { a.inner.WorkerLost(c, worker, inflight) })
}
func (a *tracedAlloc) WorkerJoined(ctx engine.AllocCtx, worker string) {
	a.callback("WorkerJoined", "", ctx, func(c engine.AllocCtx) { a.inner.WorkerJoined(c, worker) })
}
func (a *tracedAlloc) CacheEvicted(ctx engine.AllocCtx, worker string, keys []string) {
	a.callback("CacheEvicted", "", ctx, func(c engine.AllocCtx) { a.inner.CacheEvicted(c, worker, keys) })
}
func (a *tracedAlloc) Tick(ctx engine.AllocCtx, token string) {
	a.callback("Tick", "", ctx, func(c engine.AllocCtx) { a.inner.Tick(c, token) })
}

// The four allocator shapes: each adds exactly the optional hooks its
// inner allocator has.
type (
	tracedAllocSizer       struct{ *tracedAlloc }
	tracedAllocDigest      struct{ *tracedAlloc }
	tracedAllocSizerDigest struct{ *tracedAlloc }
)

func (a *tracedAlloc) contestSized(ctx engine.AllocCtx, jobID string, reached int) {
	a.callback("ContestSized", jobID, ctx, func(c engine.AllocCtx) {
		a.inner.(contestSizer).ContestSized(c, jobID, reached)
	})
}

func (a tracedAllocSizer) ContestSized(ctx engine.AllocCtx, jobID string, reached int) {
	a.contestSized(ctx, jobID, reached)
}
func (a tracedAllocSizerDigest) ContestSized(ctx engine.AllocCtx, jobID string, reached int) {
	a.contestSized(ctx, jobID, reached)
}
func (a tracedAllocDigest) StateDigest() string {
	return a.inner.(engine.StateDigester).StateDigest()
}
func (a tracedAllocSizerDigest) StateDigest() string {
	return a.inner.(engine.StateDigester).StateDigest()
}

// traceAllocator wraps alloc, returning the decorated allocator and
// the decorator itself (the owner of the master port's spans).
func traceAllocator(rec *recorder, alloc engine.Allocator) (engine.Allocator, *tracedAlloc) {
	t := &tracedAlloc{inner: alloc, rec: rec}
	var out engine.Allocator
	switch sizer, digest := allocCaps[0].has(alloc), allocCaps[1].has(alloc); {
	case sizer && digest:
		out = tracedAllocSizerDigest{t}
	case sizer:
		out = tracedAllocSizer{t}
	case digest:
		out = tracedAllocDigest{t}
	default:
		out = t
	}
	sameCapabilities(alloc, out, allocCaps)
	return out, t
}

// tracedCtx decorates the AllocCtx the master hands the allocator, so
// the allocator's self time excludes the engine work it triggers.
type tracedCtx struct {
	inner engine.AllocCtx
	a     *tracedAlloc
}

type tracedCtxFallback struct {
	*tracedCtx
	fc fallbackCtr
}

func (c *tracedCtxFallback) CountFallback() { c.fc.CountFallback() }

func (c *tracedCtx) Clock() vclock.Clock       { return c.inner.Clock() }
func (c *tracedCtx) Job(id string) *engine.Job { return c.inner.Job(id) }
func (c *tracedCtx) Rand() *rand.Rand          { return c.inner.Rand() }
func (c *tracedCtx) Workers() (ws []string) {
	c.a.ctxCall("Workers", "", func() { ws = c.inner.Workers() })
	return ws
}
func (c *tracedCtx) Assign(jobID, worker string, est time.Duration) {
	c.a.ctxCall("Assign", jobID, func() { c.inner.Assign(jobID, worker, est) })
}
func (c *tracedCtx) Offer(jobID, worker string) {
	c.a.ctxCall("Offer", jobID, func() { c.inner.Offer(jobID, worker) })
}
func (c *tracedCtx) SendNoWork(worker string, backoff time.Duration) {
	c.a.ctxCall("SendNoWork", "", func() { c.inner.SendNoWork(worker, backoff) })
}
func (c *tracedCtx) PublishBidRequest(jobID string) (n int) {
	c.a.ctxCall("PublishBidRequest", jobID, func() { n = c.inner.PublishBidRequest(jobID) })
	return n
}
func (c *tracedCtx) PublishBidRequestTo(jobID string, workers []string) (n int) {
	c.a.ctxCall("PublishBidRequestTo", jobID, func() { n = c.inner.PublishBidRequestTo(jobID, workers) })
	return n
}
func (c *tracedCtx) ScheduleBidWindow(jobID string, d time.Duration) {
	c.a.ctxCall("ScheduleBidWindow", jobID, func() { c.inner.ScheduleBidWindow(jobID, d) })
}
func (c *tracedCtx) ScheduleTick(token string, d time.Duration) {
	c.a.ctxCall("ScheduleTick", "", func() { c.inner.ScheduleTick(token, d) })
}

// --- agent -----------------------------------------------------------------

// tracedAgent decorates one worker's engine.Agent. The worker calls
// OnJobFinished from its executor goroutine and every other callback
// from its comms goroutine, so it keeps one open span per goroutine.
// A port call is a child of a callback when the callback is what sends
// that message kind: bids, accepts and rejects come from the comms
// callbacks, work requests from whichever callback is open (executor
// first). Completions, registrations and the rest are sent by the
// worker itself, never from a callback, even when one is open on the
// other goroutine.
type tracedAgent struct {
	inner engine.Agent
	rec   *recorder
	comms atomic.Pointer[agentSpan]
	exec  atomic.Pointer[agentSpan]
}

type agentSpan struct {
	id    int64
	start time.Time
	child atomic.Int64 // ns inside port calls made from this span
}

func traceAgent(rec *recorder, agent engine.Agent) *tracedAgent {
	t := &tracedAgent{inner: agent, rec: rec}
	sameCapabilities(agent, t, agentCaps)
	return t
}

func (t *tracedAgent) callback(slot *atomic.Pointer[agentSpan], name, job string, f func()) {
	o := &agentSpan{id: t.rec.newID(), start: time.Now()}
	slot.Store(o)
	f()
	end := time.Now()
	slot.Store(nil)
	t.rec.mu.Lock()
	t.rec.agentSelf += end.Sub(o.start) - time.Duration(o.child.Load())
	t.rec.add(t.rec.span(o.id, 0, "core.agent."+name, job, o.start, end))
	t.rec.mu.Unlock()
}

// parentOf implements spanOwner for a worker's port.
func (t *tracedAgent) parentOf(payload any) (int64, func(time.Duration)) {
	var o *agentSpan
	switch payload.(type) {
	case engine.MsgBid, engine.MsgAccept, engine.MsgReject:
		o = t.comms.Load()
	case engine.MsgRequestJob:
		if o = t.exec.Load(); o == nil {
			o = t.comms.Load()
		}
	}
	if o == nil {
		return 0, nil
	}
	return o.id, func(d time.Duration) { o.child.Add(int64(d)) }
}

func (t *tracedAgent) Name() string { return t.inner.Name() }
func (t *tracedAgent) Start(w *engine.Worker) {
	t.callback(&t.comms, "Start", "", func() { t.inner.Start(w) })
}
func (t *tracedAgent) OnBidRequest(w *engine.Worker, job *engine.Job) {
	t.callback(&t.comms, "OnBidRequest", job.ID, func() { t.inner.OnBidRequest(w, job) })
}
func (t *tracedAgent) OnOffer(w *engine.Worker, job *engine.Job) {
	t.callback(&t.comms, "OnOffer", job.ID, func() { t.inner.OnOffer(w, job) })
}
func (t *tracedAgent) OnNoWork(w *engine.Worker, backoff time.Duration) {
	t.callback(&t.comms, "OnNoWork", "", func() { t.inner.OnNoWork(w, backoff) })
}
func (t *tracedAgent) OnJobFinished(w *engine.Worker, job *engine.Job) {
	t.callback(&t.exec, "OnJobFinished", job.ID, func() { t.inner.OnJobFinished(w, job) })
}

// tracePolicy returns pol with both halves decorated.
func tracePolicy(rec *recorder, pol core.Policy) core.Policy {
	inner := pol
	pol.NewAllocator = func() engine.Allocator {
		a, _ := traceAllocator(rec, inner.NewAllocator())
		return a
	}
	pol.NewAgent = func(st *engine.WorkerState) engine.Agent { return traceAgent(rec, inner.NewAgent(st)) }
	return pol
}

// --- TCP port --------------------------------------------------------------

// spanOwner is whatever decorated layer calls into a port: it names the
// open span a port call belongs to and, where that span's own duration
// does not already cover the call, takes the call's time as child time.
type spanOwner interface {
	parentOf(payload any) (int64, func(time.Duration))
}

// tracedPort decorates a TCP transport client. It is never used on a
// simulated *broker.Endpoint: the sharded plane type-asserts that
// concrete type, and the simulator's broker is not a layer boundary the
// deployment has.
type tracedPort struct {
	inner *transport.Client
	rec   *recorder
	owner spanOwner
}

func tracePort(rec *recorder, c *transport.Client, owner spanOwner) *tracedPort {
	p := &tracedPort{inner: c, rec: rec, owner: owner}
	sameCapabilities(c, p, portCaps)
	return p
}

func (p *tracedPort) call(name string, payload any, f func()) time.Time {
	parent, credit := p.owner.parentOf(payload)
	id := p.rec.newID()
	start := time.Now()
	f()
	end := time.Now()
	if credit != nil {
		credit(end.Sub(start))
	}
	p.rec.mu.Lock()
	p.rec.sendUS = append(p.rec.sendUS, float64(end.Sub(start))/float64(time.Microsecond))
	p.rec.frames++
	p.rec.add(p.rec.span(id, parent, "transport."+name, jobOf(payload), start, end))
	p.rec.mu.Unlock()
	return start
}

func (p *tracedPort) Name() string           { return p.inner.Name() }
func (p *tracedPort) Inbox() vclock.Mailbox  { return p.inner.Inbox() }
func (p *tracedPort) Subscribe(topic string) { p.inner.Subscribe(topic) }
func (p *tracedPort) Deregister()            { p.inner.Deregister() }
func (p *tracedPort) Send(to string, payload any) (ok bool) {
	p.call("Send", payload, func() { ok = p.inner.Send(to, payload) })
	return ok
}
func (p *tracedPort) Publish(topic string, payload any) (n int) {
	p.call("Publish", payload, func() { n = p.inner.Publish(topic, payload) })
	return n
}
func (p *tracedPort) SendMulti(targets []string, payload any) (n int) {
	p.call("SendMulti", payload, func() { n = p.inner.SendMulti(targets, payload) })
	return n
}

// PublishAsync times the call itself as a send span and, separately,
// the wait from the call until its ack future resolves.
func (p *tracedPort) PublishAsync(topic string, payload any) func() int {
	var fut func() int
	start := p.call("PublishAsync", payload, func() { fut = p.inner.PublishAsync(topic, payload) })
	return func() int {
		n := fut()
		d := time.Since(start)
		p.rec.mu.Lock()
		p.rec.ackMS = append(p.rec.ackMS, ms(d))
		p.rec.mu.Unlock()
		return n
	}
}

// jobOf extracts the job a protocol message concerns, for span labels.
func jobOf(payload any) string {
	switch m := payload.(type) {
	case engine.MsgBidRequest:
		return m.Job.ID
	case engine.MsgBid:
		return m.JobID
	case engine.MsgAssign:
		return m.Job.ID
	case engine.MsgJobDone:
		return m.JobID
	case engine.MsgAccept:
		return m.JobID
	case engine.MsgReject:
		return m.JobID
	}
	return ""
}

// --- engine.Tracer ---------------------------------------------------------

// stageTracer is an engine.Tracer that keeps each job's lifecycle
// instants, from which the injected→contest→assigned→finished stage
// durations are derived.
type stageTracer struct {
	mu   sync.Mutex
	jobs map[string]*jobStages
}

type jobStages struct {
	injected, contest, assigned, finished time.Time
	contested                             bool
}

func newStageTracer() *stageTracer { return &stageTracer{jobs: make(map[string]*jobStages)} }

func (t *stageTracer) Trace(ev engine.TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	js := t.jobs[ev.JobID]
	if js == nil {
		js = &jobStages{}
		t.jobs[ev.JobID] = js
	}
	switch ev.Kind {
	case engine.TraceInjected:
		if js.injected.IsZero() {
			js.injected = ev.At
		}
	case engine.TraceContest:
		if !js.contested {
			js.contest, js.contested = ev.At, true
		}
	case engine.TraceAssigned:
		js.assigned = ev.At
	case engine.TraceFinished:
		js.finished = ev.At
	}
}

func (t *stageTracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs = make(map[string]*jobStages)
}

// stageSamples returns queue, contest and exec durations of the
// finished jobs, in ms of clock time divided by scale. Jobs placed
// without a contest (offers, pulls) count their whole
// injected→assigned wait as queueing.
func (t *stageTracer) stageSamples(scale float64) (queue, contest, exec []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	conv := func(d time.Duration) float64 { return ms(d) / scale }
	for _, js := range t.jobs {
		if js.finished.IsZero() || js.assigned.IsZero() {
			continue
		}
		if js.contested {
			queue = append(queue, conv(js.contest.Sub(js.injected)))
			contest = append(contest, conv(js.assigned.Sub(js.contest)))
		} else {
			queue = append(queue, conv(js.assigned.Sub(js.injected)))
		}
		exec = append(exec, conv(js.finished.Sub(js.assigned)))
	}
	return queue, contest, exec
}

// setStages reports one phase's stage percentiles under prefix.
func setStages(out *outcome, prefix string, queue, contest, exec []float64) {
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"queue_ms", queue}, {"contest_ms", contest}, {"exec_ms", exec}} {
		out.set(prefix+s.name+".p50", percentile(s.xs, 50))
		out.set(prefix+s.name+".p99", percentile(s.xs, 99))
	}
}
