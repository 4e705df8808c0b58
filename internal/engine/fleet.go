package engine

import (
	"fmt"
	"sort"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/vclock"
)

// actor is the plumbing every control-plane loop runs on — the single
// Master and the sharded frontend router alike: the clock, the endpoint
// whose inbox the loop drains, the model checker's labelling hook, and
// the readiness signal. It is written only during construction, before
// any loop starts, so its methods are safe from any goroutine; the
// exported ones are how callers outside the loop reach it.
type actor struct {
	clk vclock.Clock
	ep  Port
	// labeled is non-nil only under a model-checking chooser (see
	// vclock.ActiveLabeled); the loop's self-timers then carry labels.
	labeled *vclock.Sim
	// readyAck, armed in cluster mode only, receives one value once the
	// initial worker quorum has formed.
	readyAck vclock.Mailbox
}

func newActor(clk vclock.Clock, ep Port) *actor {
	return &actor{clk: clk, ep: ep, labeled: vclock.ActiveLabeled(clk)}
}

// Inject delivers a payload into the loop from outside (fault-injection
// hooks, tests). Safe to call from any goroutine.
func (a *actor) Inject(payload any) {
	a.ep.Inbox().Send(&broker.Envelope{From: a.ep.Name(), To: a.ep.Name(), Payload: payload})
}

// WaitReady blocks until the initial worker quorum has registered. On a
// simulated clock it must be called from a clock-tracked goroutine. It
// is single-shot: one caller owns the readiness signal.
func (a *actor) WaitReady() {
	if a.readyAck != nil {
		a.readyAck.Recv()
	}
}

// Shutdown stops a cluster-mode control plane: the loop publishes
// MsgStop to the fleet, flushes a report to every session still waiting,
// and exits. Safe to call from any goroutine.
func (a *actor) Shutdown() { a.Inject(msgShutdown{}) }

// Drain asks a worker to finish its queued jobs and leave the fleet. The
// worker is removed from the live set immediately — it wins no further
// contests — and the returned mailbox receives one value once its
// MsgLeave has been processed. Safe to call from any goroutine; on a
// simulated clock, receive on a clock-tracked goroutine.
func (a *actor) Drain(worker string) vclock.Mailbox {
	ack := a.clk.NewMailbox("drain:" + worker)
	a.Inject(msgDrainStart{worker: worker, ack: ack})
	return ack
}

// OpenSession opens a streaming workflow session on a cluster-mode
// control plane. id must be unique among open sessions; wf consumes the
// jobs. On a sharded plane the session is transparently partitioned and
// Wait returns the merged per-shard report. Safe to call from any
// goroutine.
func (a *actor) OpenSession(id string, wf *Workflow) *MasterSession {
	s := &session{id: id, wf: wf, feedOpen: true, done: a.clk.NewMailbox("session:" + id)}
	a.Inject(msgOpenSession{s: s})
	return &MasterSession{m: a, s: s}
}

// serve is the actor loop: it hands each envelope in the inbox to
// handle until handle reports the loop done or the inbox closes.
func (a *actor) serve(handle func(*broker.Envelope) bool) {
	for {
		v, ok := a.ep.Inbox().Recv()
		if !ok {
			return
		}
		env, ok := v.(*broker.Envelope)
		if !ok {
			continue
		}
		if handle(env) {
			return
		}
	}
}

// afterFunc schedules f on the loop's clock, labeling the event with
// the master as its conflict domain when a model-checking chooser is
// active. A loop's self-timers only ever Inject back into its own
// inbox, and the whole control plane (a sharded router plus its parts,
// which only ever receive through the router or their own self-timers)
// forms one conflict domain under MasterName, so they commute with
// deliveries to other nodes.
func (a *actor) afterFunc(d time.Duration, detail string, f func()) {
	if a.labeled != nil {
		a.labeled.AfterFuncLabeled(d, vclock.EventLabel{Node: MasterName, Detail: detail}, f)
		return
	}
	a.clk.AfterFunc(d, f)
}

// fleet is the control plane's one view of worker membership: the
// ordered live-worker list and set, the death tombstones, the initial
// quorum and its readiness, and the drain acks waiting on a worker's
// goodbye. The single Master and the sharded frontend router each hold
// one and wrap its operations in their own side effects — the master
// acks registrations and calls its allocator, the router fans the same
// events out to its shard parts.
//
// Single-owner rule: a fleet belongs to the goroutine of the loop that
// holds it, and every method must run there. Owners hold it in a field
// annotated //xflow:owned with their loop's domain, so loopowned checks
// each access. Code off the loop goes through the owner's own embedded
// actor, which the fleet shares.
type fleet struct {
	*actor
	// expected is the initial quorum still to wait for; a worker lost
	// before the fleet formed lowers it (see shrinkQuorum).
	expected int
	// ready flips once the quorum formed; registrations after that are
	// mid-run joins.
	ready   bool
	workers []string
	live    map[string]bool
	// dead tombstones every worker that has died or left undrained, so a
	// registration that was in flight when its sender was declared dead
	// cannot resurrect it. Found by the model checker: a kill landing
	// before the victim's MsgRegister arrived let the corpse register,
	// win a zero-bid fallback assignment, and strand the job forever
	// (fuzzing never sees this — generated kills deliberately stay clear
	// of the registration handshake).
	dead map[string]bool
	// drains holds the acks to deliver when each draining worker's
	// MsgLeave arrives.
	drains map[string][]vclock.Mailbox
	// arrivals is a batch run's input stream, laid on the clock when the
	// fleet forms; batch, non-nil in batch mode only, starts the owner's
	// batch session just before.
	arrivals []Arrival
	batch    func()
}

func newFleet(a *actor, expected int) *fleet {
	return &fleet{
		actor:    a,
		expected: expected,
		live:     make(map[string]bool),
		dead:     make(map[string]bool),
		drains:   make(map[string][]vclock.Mailbox),
	}
}

// armReady creates the readiness signal WaitReady blocks on (cluster
// mode). A fleet expecting no initial workers is ready at once.
func (f *fleet) armReady() {
	f.readyAck = f.clk.NewMailbox(f.ep.Name() + ":ready")
	if f.expected == 0 {
		f.ready = true
		f.readyAck.Send(struct{}{})
	}
}

// member reports whether worker is in the live set.
func (f *fleet) member(worker string) bool { return f.live[worker] }

// register handles a worker's registration. A tombstoned worker is
// refused outright: it died before its registration arrived, so acking
// it would add a corpse to the live set, and every job it then won would
// strand (its death was already processed — no later MsgWorkerDead
// rescues them). Otherwise admit runs — the owner acks or fans out the
// registration, which workers accept idempotently — and a newcomer
// joins the live set. register reports whether the newcomer is a mid-run
// join; before the fleet formed it counts toward the quorum instead.
func (f *fleet) register(worker string, admit func()) (joined bool) {
	if f.dead[worker] {
		return false
	}
	admit()
	if f.live[worker] {
		return false
	}
	f.live[worker] = true
	f.workers = append(f.workers, worker)
	if f.ready {
		return true
	}
	if len(f.workers) >= f.expected {
		f.becomeReady()
	}
	return false
}

// remove takes worker out of the live set. Before the fleet formed it
// also un-counts the registration the quorum had banked, so the bar
// drops with it.
func (f *fleet) remove(worker string) {
	delete(f.live, worker)
	for i, w := range f.workers {
		if w == worker {
			f.workers = append(f.workers[:i], f.workers[i+1:]...)
			break
		}
	}
	f.shrinkQuorum()
}

// shrinkQuorum lowers the fleet-formation bar by one expected worker —
// called when a worker dies or drains away before the fleet formed, so
// the remaining registrations can still complete the quorum instead of
// waiting forever for one that can never arrive. After ready it is a
// no-op (the quorum has served its purpose).
func (f *fleet) shrinkQuorum() {
	if f.ready {
		return
	}
	f.expected--
	if len(f.workers) >= f.expected {
		f.becomeReady()
	}
}

// becomeReady settles fleet formation: the initial quorum is present
// (or has stopped being reachable). In batch mode the run starts now:
// the owner opens its batch session and every arrival is scheduled to
// Inject itself at its offset.
func (f *fleet) becomeReady() {
	f.ready = true
	if f.readyAck != nil {
		f.readyAck.Send(struct{}{})
	}
	if f.batch == nil {
		return
	}
	f.batch()
	for _, arr := range f.arrivals {
		arr := arr
		f.afterFunc(arr.At, "arrival "+arr.Job.ID, func() { f.Inject(MsgInject{Job: arr.Job}) })
	}
}

// bury processes a worker's death: the worker is tombstoned and leaves
// the live set. A worker that died before its registration arrived
// (which register will now refuse) was an expected initial worker that
// can never register, so it stops holding up the quorum too. bury
// reports whether the worker was live — whether the owner has work to
// rescue.
func (f *fleet) bury(worker string) (wasLive bool) {
	first := !f.dead[worker]
	f.dead[worker] = true
	if !f.live[worker] {
		if first {
			f.shrinkQuorum()
		}
		return false
	}
	f.remove(worker)
	return true
}

// depart settles a worker's goodbye in the live set: a live worker
// leaving without a drain is a voluntary immediate exit and is buried
// like a death; after a drain it already left the set. depart reports
// whether the worker was live.
func (f *fleet) depart(worker string) (wasLive bool) {
	if !f.live[worker] {
		return false
	}
	return f.bury(worker)
}

// startDrain takes a draining worker out of the live set and banks ack
// for its goodbye. It reports false, and settles ack itself, when the
// worker is not live — unknown, dead, or already draining; in the last
// case ack joins the pending drain rather than firing now.
func (f *fleet) startDrain(worker string, ack vclock.Mailbox) bool {
	if !f.live[worker] {
		if ack != nil {
			if _, pending := f.drains[worker]; pending {
				f.drains[worker] = append(f.drains[worker], ack)
			} else {
				ack.Send(worker)
			}
		}
		return false
	}
	f.remove(worker)
	f.drains[worker] = append(f.drains[worker], ack)
	return true
}

// ackLeave delivers every drain ack waiting on worker's goodbye.
func (f *fleet) ackLeave(worker string) {
	acks, ok := f.drains[worker]
	if !ok {
		return
	}
	delete(f.drains, worker)
	for _, ack := range acks {
		if ack != nil {
			ack.Send(worker)
		}
	}
}

// flushDrains delivers every pending drain ack, in sorted worker order,
// so no caller blocks across a shutdown or abort.
func (f *fleet) flushDrains() {
	for _, w := range sortedKeys(f.drains) {
		f.ackLeave(w)
	}
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stampJob gives a job entering the plane its identity: an ID from the
// sequence number next when it has none, its session's name, and a
// "#<n>" suffix when taken already holds the ID. It returns the next
// sequence number.
func stampJob[V any](job *Job, next int, session string, taken map[string]V) int {
	if job.ID == "" {
		job.ID = formatJobID(next)
	}
	next++
	if session != "" {
		job.Session = session
	}
	if _, dup := taken[job.ID]; dup {
		job.ID = fmt.Sprintf("%s#%d", job.ID, next)
	}
	return next
}
