package engine_test

import (
	"fmt"
	"testing"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

func namedWorkflow(name, prefix string) *engine.Workflow {
	wf := engine.NewWorkflow(name)
	wf.MustAddTask(engine.TaskSpec{
		Name:  "process",
		Input: "work",
		Fn: func(ctx *engine.TaskContext, job *engine.Job) ([]*engine.Job, []any, error) {
			ctx.RequireData(job.DataKey, job.DataSizeMB)
			ctx.Process(job.DataSizeMB)
			return nil, []any{prefix + job.ID}, nil
		},
	})
	return wf
}

// planeShards is the control-plane table the elastic membership tests
// run over: the classic single master and a two-shard router.
var planeShards = []int{1, 2}

// forEachPlane runs body once per planeShards entry as a subtest.
func forEachPlane(t *testing.T, body func(t *testing.T, shards int)) {
	for _, shards := range planeShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { body(t, shards) })
	}
}

// newBidding builds one bidding allocator per contest shard.
func newBidding() engine.Allocator { return core.NewBidding() }

// assertPlaneAgrees checks, at quiescence, that every loop of the
// control plane ended with the same live-worker list: on a sharded
// plane the router and each shard part must agree on the fleet.
func assertPlaneAgrees(t *testing.T, c *engine.Cluster, shards int) {
	t.Helper()
	lists := engine.PlaneWorkers(c)
	if want := shards + 1; shards > 1 && len(lists) != want || shards <= 1 && len(lists) != 1 {
		t.Fatalf("plane has %d loops for shards=%d", len(lists), shards)
	}
	for i, l := range lists[1:] {
		if fmt.Sprint(l) != fmt.Sprint(lists[0]) {
			t.Errorf("shard %d live workers %v, router has %v", i, l, lists[0])
		}
	}
}

// TestClusterElasticLifecycle drives the long-lived runtime end to end:
// two workflow sessions stream jobs through one shared fleet, a worker
// joins mid-stream and wins work, a worker drains gracefully, and the
// per-session reports stay disjoint.
func TestClusterElasticLifecycle(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		clk := vclock.NewSim()
		joiner := engine.NewWorkerState(engine.WorkerSpec{
			Name: "wj",
			Net:  netsim.Speed{BaseMBps: 20},
			RW:   netsim.Speed{BaseMBps: 100},
			Seed: 99,
		}, nil)
		// The joiner arrives holding the "hot" repositories, so bidding must
		// route the post-join jobs to it once it is in the fleet.
		joiner.Cache.Put("hotJ", 50)

		c, err := engine.NewCluster(engine.ClusterConfig{
			Clock:        clk,
			Workers:      testCluster(2, 20, 100, 0),
			Allocator:    core.NewBidding(),
			Shards:       shards,
			NewAllocator: newBidding,
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		var repA, repB *engine.Report
		// This tracked goroutine starts the cluster itself: started from
		// the untracked test goroutine, the fleet could register and park
		// before it existed, which the simulated clock reports as a
		// deadlock.
		clk.Go(func() {
			c.Start()
			c.WaitReady()
			sessA, err := c.Open("alpha", namedWorkflow("alpha", "A:"))
			if err != nil {
				t.Errorf("Open alpha: %v", err)
				return
			}
			sessB, err := c.Open("beta", namedWorkflow("beta", "B:"))
			if err != nil {
				t.Errorf("Open beta: %v", err)
				return
			}
			// Stream the first wave while only the initial fleet exists.
			for i := 0; i < 4; i++ {
				sessA.Submit(&engine.Job{ID: fmt.Sprintf("a%d", i), Stream: "work",
					DataKey: fmt.Sprintf("ra%d", i), DataSizeMB: 20})
				sessB.Submit(&engine.Job{ID: fmt.Sprintf("b%d", i), Stream: "work",
					DataKey: fmt.Sprintf("rb%d", i), DataSizeMB: 20})
				clk.Sleep(500 * time.Millisecond)
			}
			if _, err := c.Join(joiner); err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			// Give the joiner's registration a beat to land, then submit the
			// wave whose data it already holds.
			clk.Sleep(time.Second)
			for i := 0; i < 4; i++ {
				sessA.Submit(&engine.Job{ID: fmt.Sprintf("aj%d", i), Stream: "work",
					DataKey: "hotJ", DataSizeMB: 50})
				clk.Sleep(200 * time.Millisecond)
			}
			sessA.Close()
			sessB.Close()
			repA = sessA.Wait()
			repB = sessB.Wait()
			// Scale down gracefully, then stop the cluster.
			c.Drain("w0")
			c.Stop()
		})
		clk.Wait()
		assertPlaneAgrees(t, c, shards)

		if repA == nil || repB == nil {
			t.Fatal("session reports missing")
		}
		if repA.JobsCompleted != 8 {
			t.Errorf("session alpha completed %d jobs, want 8", repA.JobsCompleted)
		}
		if repB.JobsCompleted != 4 {
			t.Errorf("session beta completed %d jobs, want 4", repB.JobsCompleted)
		}
		// Tenancy: each session sees only its own workflow's results.
		for _, r := range repA.Results {
			if s, ok := r.(string); !ok || s[:2] != "A:" {
				t.Errorf("alpha result %v leaked from another session", r)
			}
		}
		for _, r := range repB.Results {
			if s, ok := r.(string); !ok || s[:2] != "B:" {
				t.Errorf("beta result %v leaked from another session", r)
			}
		}
		if len(repA.Records) != 8 || len(repB.Records) != 4 {
			t.Errorf("record split = %d/%d, want 8/4", len(repA.Records), len(repB.Records))
		}
		// The joiner held the hot data, so it must have won the post-join wave.
		if got := joinerJobs(t, repA); got < 3 {
			t.Errorf("joiner completed %d post-join jobs, want >= 3", got)
		}
	})
}

// joinerJobs counts session records that finished on the joiner.
func joinerJobs(t *testing.T, rep *engine.Report) int {
	t.Helper()
	n := 0
	for _, rec := range rep.Records {
		if rec.Worker == "wj" && rec.Status == engine.StatusFinished {
			n++
		}
	}
	return n
}

// redispatchEvents filters a trace down to the redispatch records.
func redispatchEvents(trace *engine.TraceLog) []engine.TraceEvent {
	var out []engine.TraceEvent
	for _, ev := range trace.Events() {
		if ev.Kind == engine.TraceRedispatch {
			out = append(out, ev)
		}
	}
	return out
}

// TestClusterDrainWhileContestInFlight drains a worker while a bid
// window for freshly submitted jobs is still open. The drained worker
// must win none of the racing contests, every job must still complete
// exactly once, and the rescueStranded invariant must hold end to end:
// the session's Redispatched counter equals the trace's redispatch
// events, and each such event names the departed worker.
func TestClusterDrainWhileContestInFlight(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		clk := vclock.NewSim()
		trace := engine.NewTraceLog()
		c, err := engine.NewCluster(engine.ClusterConfig{
			Clock:        clk,
			Workers:      testCluster(3, 20, 100, 0),
			Allocator:    core.NewBidding(),
			Shards:       shards,
			NewAllocator: newBidding,
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Tracer:       trace,
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		var rep *engine.Report
		// This tracked goroutine starts the cluster itself: started from
		// the untracked test goroutine, the fleet could register and park
		// before it existed, which the simulated clock reports as a
		// deadlock.
		clk.Go(func() {
			c.Start()
			c.WaitReady()
			sess, err := c.Open("drain-race", namedWorkflow("drain-race", "D:"))
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			// First wave lands and keeps the fleet (including w1) busy.
			for i := 0; i < 4; i++ {
				sess.Submit(&engine.Job{ID: fmt.Sprintf("d%d", i), Stream: "work",
					DataKey: fmt.Sprintf("rd%d", i), DataSizeMB: 40})
			}
			clk.Sleep(300 * time.Millisecond)
			// Second wave opens fresh contests, and the drain races them: the
			// master pulls w1 from the live set while the bid windows are open.
			for i := 4; i < 7; i++ {
				sess.Submit(&engine.Job{ID: fmt.Sprintf("d%d", i), Stream: "work",
					DataKey: fmt.Sprintf("rd%d", i), DataSizeMB: 40})
			}
			c.Drain("w1")
			sess.Close()
			rep = sess.Wait()
			c.Stop()
		})
		clk.Wait()
		assertPlaneAgrees(t, c, shards)

		if rep == nil {
			t.Fatal("session report missing")
		}
		if rep.JobsCompleted != 7 {
			t.Errorf("JobsCompleted = %d, want 7 despite the racing drain", rep.JobsCompleted)
		}
		finishes := make(map[string]int)
		for _, ev := range trace.Events() {
			if ev.Kind == engine.TraceFinished {
				finishes[ev.JobID]++
			}
		}
		for id, rec := range rep.Records {
			if rec.Status != engine.StatusFinished || rec.Worker == "" {
				t.Errorf("job %s ended status=%v worker=%q", id, rec.Status, rec.Worker)
			}
			if finishes[id] != 1 {
				t.Errorf("job %s finished %d times, want exactly once", id, finishes[id])
			}
		}
		// The rescueStranded accounting invariant: every redispatch in the
		// trace is attributed to the one departed worker, and the session
		// counter agrees with the trace.
		redis := redispatchEvents(trace)
		if rep.Redispatched != len(redis) {
			t.Errorf("Redispatched = %d but trace has %d redispatch events", rep.Redispatched, len(redis))
		}
		for _, ev := range redis {
			if ev.Node != "w1" {
				t.Errorf("redispatch of %s attributed to live worker %q", ev.JobID, ev.Node)
			}
		}
	})
}

// TestClusterJoinImmediatelyLeave joins a fast worker holding the hot
// data, lets it win the wave, then yanks it with Leave while its queue
// is full — operationally a controlled crash moments after joining.
// Every stranded job must be redispatched to the survivors and complete
// exactly once, with the Redispatched counter matching the trace.
func TestClusterJoinImmediatelyLeave(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		clk := vclock.NewSim()
		trace := engine.NewTraceLog()
		joiner := engine.NewWorkerState(engine.WorkerSpec{
			Name: "wj",
			Net:  netsim.Speed{BaseMBps: 20},
			RW:   netsim.Speed{BaseMBps: 50}, // 1s per hot job: busy at Leave time
			Seed: 99,
		}, nil)
		joiner.Cache.Put("hotJ", 50)

		c, err := engine.NewCluster(engine.ClusterConfig{
			Clock:        clk,
			Workers:      testCluster(2, 20, 100, 0),
			Allocator:    core.NewBidding(),
			Shards:       shards,
			NewAllocator: newBidding,
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Tracer:       trace,
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		var rep *engine.Report
		// This tracked goroutine starts the cluster itself: started from
		// the untracked test goroutine, the fleet could register and park
		// before it existed, which the simulated clock reports as a
		// deadlock.
		clk.Go(func() {
			c.Start()
			c.WaitReady()
			sess, err := c.Open("join-leave", namedWorkflow("join-leave", "J:"))
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			if _, err := c.Join(joiner); err != nil {
				t.Errorf("Join: %v", err)
				return
			}
			// One beat for the registration, then the wave the joiner's hot
			// cache wins: it holds hotJ, the initial fleet would pay a 2.5s
			// download, so every contest goes to wj.
			clk.Sleep(100 * time.Millisecond)
			for i := 0; i < 3; i++ {
				sess.Submit(&engine.Job{ID: fmt.Sprintf("h%d", i), Stream: "work",
					DataKey: "hotJ", DataSizeMB: 50})
			}
			// Leave mid-execution: the first job is running on wj (1s each),
			// the rest sit in its queue. All of them must be rescued.
			clk.Sleep(500 * time.Millisecond)
			c.Leave("wj")
			sess.Close()
			rep = sess.Wait()
			c.Stop()
		})
		clk.Wait()
		assertPlaneAgrees(t, c, shards)

		if rep == nil {
			t.Fatal("session report missing")
		}
		if rep.JobsCompleted != 3 {
			t.Errorf("JobsCompleted = %d, want 3 despite the leave", rep.JobsCompleted)
		}
		for id, rec := range rep.Records {
			if rec.Status != engine.StatusFinished {
				t.Errorf("job %s ended in status %v", id, rec.Status)
			}
			if rec.Worker == "wj" {
				t.Errorf("job %s still attributed to the departed joiner", id)
			}
		}
		redis := redispatchEvents(trace)
		if rep.Redispatched != len(redis) {
			t.Errorf("Redispatched = %d but trace has %d redispatch events", rep.Redispatched, len(redis))
		}
		// The joiner had won the whole wave when it left, so the rescue is
		// non-trivial: at least the running job was stranded on it.
		if rep.Redispatched == 0 {
			t.Error("leave stranded no work: the scenario lost its race, redispatch path untested")
		}
		for _, ev := range redis {
			if ev.Node != "wj" {
				t.Errorf("redispatch of %s attributed to %q, want the departed wj", ev.JobID, ev.Node)
			}
		}
	})
}

// TestRunWithJoinSchedulesMidRunScaleUp exercises the batch wrapper's
// elastic path: a joiner entering mid-run appears in the report and
// takes real work off the initial fleet.
func TestRunWithJoinSchedulesMidRunScaleUp(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		joiner := engine.NewWorkerState(engine.WorkerSpec{
			Name: "late",
			Net:  netsim.Speed{BaseMBps: 200},
			RW:   netsim.Speed{BaseMBps: 400},
			Seed: 7,
		}, nil)
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("r%d", i)
		}
		arrivals := dataJobs(keys, 100)
		for i := range arrivals {
			arrivals[i].At = time.Duration(i) * 2 * time.Second
		}
		var c *engine.Cluster
		rep := runOrFail(t, engine.Config{
			Workers:      testCluster(2, 10, 50, 0),
			Allocator:    core.NewBidding(),
			Shards:       shards,
			NewAllocator: newBidding,
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Workflow:     dataWorkflow(),
			Arrivals:     arrivals,
			Joins:        []engine.Join{{State: joiner, At: 5 * time.Second}},
			Probe:        func(pc *engine.Cluster) { c = pc },
		})
		assertPlaneAgrees(t, c, shards)
		if rep.JobsCompleted != 16 {
			t.Fatalf("JobsCompleted = %d, want 16", rep.JobsCompleted)
		}
		if len(rep.Workers) != 3 {
			t.Fatalf("report has %d workers, want 3 (2 initial + joiner)", len(rep.Workers))
		}
		late := rep.Workers[2]
		if late.Name != "late" {
			t.Fatalf("joiner report name = %q", late.Name)
		}
		// The joiner is an order of magnitude faster than the initial nodes,
		// so it must end up doing the bulk of the staggered stream.
		if late.JobsDone < 4 {
			t.Errorf("joiner did %d jobs, want >= 4", late.JobsDone)
		}
		var total int
		for _, w := range rep.Workers {
			total += w.JobsDone
		}
		if total != 16 {
			t.Errorf("per-worker JobsDone sums to %d, want 16 (no lost or duplicated work)", total)
		}
	})
}

// TestRunWithDrainLosesNoWork drains a worker mid-run: every job still
// completes exactly once, and the drained worker's completions before
// departure are preserved.
func TestRunWithDrainLosesNoWork(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		keys := make([]string, 12)
		for i := range keys {
			keys[i] = fmt.Sprintf("r%d", i)
		}
		arrivals := dataJobs(keys, 100)
		for i := range arrivals {
			arrivals[i].At = time.Duration(i) * time.Second
		}
		var c *engine.Cluster
		rep := runOrFail(t, engine.Config{
			Workers:      testCluster(3, 10, 100, 0), // ~10.5s per cold job
			Allocator:    core.NewBidding(),
			Shards:       shards,
			NewAllocator: newBidding,
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Workflow:     dataWorkflow(),
			Arrivals:     arrivals,
			Drains:       []engine.Drain{{Worker: "w1", At: 15 * time.Second}},
			Probe:        func(pc *engine.Cluster) { c = pc },
		})
		assertPlaneAgrees(t, c, shards)
		if rep.JobsCompleted != 12 {
			t.Fatalf("JobsCompleted = %d, want all 12 despite the drain", rep.JobsCompleted)
		}
		var total int
		for _, w := range rep.Workers {
			total += w.JobsDone
		}
		if total != 12 {
			t.Errorf("per-worker JobsDone sums to %d, want 12 (zero lost or duplicated)", total)
		}
		// A drain is not a crash: the worker was mid-queue at 15s, so it must
		// have finished at least the job it was executing.
		if rep.Workers[1].JobsDone == 0 {
			t.Error("drained worker reports no completed jobs")
		}
		for id, rec := range rep.Records {
			if rec.Status != engine.StatusFinished {
				t.Errorf("job %s ended in status %v", id, rec.Status)
			}
			if rec.Worker == "" {
				t.Errorf("job %s finished with no worker attribution", id)
			}
		}
	})
}

// TestRunValidatesElasticPlan covers the new fault-plan validation.
func TestRunValidatesElasticPlan(t *testing.T) {
	base := func() engine.Config {
		return engine.Config{
			Workers:   testCluster(2, 10, 100, 0),
			Allocator: core.NewBidding(),
			NewAgent:  func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Workflow:  dataWorkflow(),
			Arrivals:  dataJobs([]string{"a"}, 10),
		}
	}
	dup := base()
	dup.Joins = []engine.Join{{State: engine.NewWorkerState(engine.WorkerSpec{Name: "w0"}, nil)}}
	if _, err := engine.Run(dup); err == nil {
		t.Error("join duplicating an existing worker accepted")
	}
	nilJoin := base()
	nilJoin.Joins = []engine.Join{{}}
	if _, err := engine.Run(nilJoin); err == nil {
		t.Error("nil join state accepted")
	}
	ghost := base()
	ghost.Drains = []engine.Drain{{Worker: "ghost", At: time.Second}}
	if _, err := engine.Run(ghost); err == nil {
		t.Error("drain of unknown worker accepted")
	}
}
