package main

import (
	"runtime"
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/wire"
)

// wireFrames are the four hot frame kinds, shaped like tcp-serve's:
// the master's bid-request publish, a worker's bid, the master's
// assignment and a worker's completion report.
func wireFrames() map[string]*wire.Frame {
	job := &engine.Job{ID: "steady-012345", Stream: "repo-jobs", DataKey: "tcp/k17",
		DataSizeMB: tcpJobMB, Session: "steady"}
	return map[string]*wire.Frame{
		"bid_request": {Kind: wire.KindPublish, Seq: 4711, Topic: engine.TopicBids,
			Payload: engine.MsgBidRequest{Job: job}},
		"bid": {Kind: wire.KindSend, To: engine.MasterName, Payload: engine.MsgBid{
			JobID: job.ID, Worker: "w003", Estimate: 27 * time.Millisecond, JobCost: 5 * time.Millisecond}},
		"assign": {Kind: wire.KindSend, To: "w003", Payload: engine.MsgAssign{
			Job: job, EstimatedCost: 5 * time.Millisecond}},
		"job_done": {Kind: wire.KindSend, To: engine.MasterName, Payload: engine.MsgJobDone{
			JobID: job.ID, Worker: "w003"}},
	}
}

// measureWire times wire.AppendFrame and wire.ParseFrame on each frame
// kind and counts heap allocations per encode+decode round trip. Each
// figure is the median of several timed batches.
func measureWire(out *outcome) {
	const batch, batches = 20000, 9
	for kind, f := range wireFrames() {
		buf, err := wire.AppendFrame(nil, f)
		if err != nil {
			panic(err) // the frames above are fixed and valid
		}
		var enc, dec []float64
		for i := 0; i < batches; i++ {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				buf, _ = wire.AppendFrame(buf[:0], f)
			}
			enc = append(enc, float64(time.Since(t0).Nanoseconds())/batch)
			var g wire.Frame
			t0 = time.Now()
			for j := 0; j < batch; j++ {
				_ = wire.ParseFrame(buf, &g)
			}
			dec = append(dec, float64(time.Since(t0).Nanoseconds())/batch)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for j := 0; j < batch; j++ {
			buf, _ = wire.AppendFrame(buf[:0], f)
			var g wire.Frame
			_ = wire.ParseFrame(buf, &g)
		}
		runtime.ReadMemStats(&m1)
		out.set("wire.encode_ns."+kind, median(enc))
		out.set("wire.decode_ns."+kind, median(dec))
		out.set("wire.allocs."+kind, float64(m1.Mallocs-m0.Mallocs)/batch)
	}
}
