package main

import (
	"container/heap"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

// Stream workload sizes: a calibrated Table 2 stream at offered load
// 0.7 on the paper's 256 nodes, written to SWF during set-up.
const (
	streamJobs = 1_000_000
	streamLoad = 0.7
)

// writeStream generates the stream and writes it as SWF; it returns the
// file size.
func writeStream(path string, rc workload.RandomizedConfig) (int64, error) {
	st, err := workload.NewStreamer(rc)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Header{Computer: "perfbench swf-stream", MaxNodes: paperNodes})
	if err != nil {
		return 0, err
	}
	for {
		j, err := st.Next()
		if err != nil {
			return 0, err
		}
		if j == nil {
			break
		}
		if err := w.WriteJob(j); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// streamPass runs FCFS/EASY-Backfilling over the SWF file through
// trace.Scanner into the sink. A traced pass passes wrap to put its
// wrappers around the scanner and the scheduler.
func streamPass(path string, sink sim.Sink, hooks telemetry.Hooks,
	wrap func(sim.Source, *sched.Composite) (sim.Source, sim.Scheduler)) (*sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	alg, err := sched.New(sched.OrderFCFS, sched.StartEASY, sched.Config{MachineNodes: paperNodes, Hooks: hooks})
	if err != nil {
		return nil, err
	}
	var src sim.Source = trace.NewScanner(f, trace.ReadOptions{})
	var sch sim.Scheduler = alg
	if wrap != nil {
		src, sch = wrap(src, alg)
	}
	return sim.RunStream(sim.Machine{Nodes: paperNodes}, src, sch, sim.Options{Sink: sink, Recorder: hooks.Recorder})
}

// runSWFStream is the streaming path: SWF ingest, engine, bounded-memory
// aggregate sink. It repeats whole passes over the file until the run
// time is spent.
func runSWFStream(cfg runConfig) (*report, error) {
	rep := newReport()
	rc := workload.CalibratedStreamConfig(streamJobs, paperNodes, streamLoad, cfg.seed)
	var path string
	var size int64
	for i := 0; i < setupRepeats; i++ {
		// Each repetition writes a new file and the previous one is
		// removed outside the timing, so no set-up pays for truncating
		// its predecessor's pages.
		prev := path
		path = filepath.Join(cfg.work, fmt.Sprintf("stream%d.swf", i))
		runtime.GC()
		t0 := time.Now()
		var err error
		if size, err = writeStream(path, rc); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		if prev != "" {
			if err := os.Remove(prev); err != nil {
				return nil, err
			}
		}
	}
	rep.note("sizes: %d jobs, %d nodes, offered load %.1f, %d-byte SWF, FCFS/EASY-Backfilling", streamJobs, paperNodes, streamLoad, size)

	var first *sim.Aggregates
	var passes int
	var passWall []float64
	stopHeap := watchLiveHeap()
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < cfg.seconds {
		agg := &sim.Aggregates{}
		p0 := time.Now()
		if _, err := streamPass(path, agg, telemetry.Hooks{}, nil); err != nil {
			rep.tally.check(false, "stream pass: "+err.Error())
			stopHeap()
			return rep, nil
		}
		passWall = append(passWall, time.Since(p0).Seconds())
		passes++
		rep.tally.check(agg.Jobs == streamJobs && agg.Completed == streamJobs,
			fmt.Sprintf("jobs out %d (completed %d) != jobs in %d", agg.Jobs, agg.Completed, streamJobs))
		if first == nil {
			first = agg
		} else {
			rep.tally.check(*agg == *first, "stream aggregates differ between passes")
		}
		rep.tally.ok(agg.Jobs)
	}
	wall := time.Since(start)
	rep.metrics["live_heap_mb"] = stopHeap()
	// Every pass does identical work, so the fastest is the one the
	// host disturbed least: on a shared 2-vCPU host the passes of one
	// run range over a quarter, and the fastest pass halves the
	// run-to-run spread of the median pass.
	fastest := passWall[0]
	for _, w := range passWall {
		fastest = min(fastest, w)
	}
	rep.metrics["jobs_per_s"] = streamJobs / fastest
	rep.note("sim_jobs_per_s = %.6g (fastest of %d passes, median pass %.6g jobs/s, %.3fs wall); avg response %.1fs, makespan %d",
		rep.metrics["jobs_per_s"], passes, streamJobs/median(passWall), wall.Seconds(), first.AvgResponseTime(), first.Makespan)
	rep.note("pass seconds: %.3f", passWall)

	// One more, untimed pass checks every allocation of the same run.
	agg := &sim.Aggregates{}
	v := newValidatingSink(paperNodes, rc.MaxLimit, streamJobs)
	if _, err := streamPass(path, sim.MultiSink{agg, v}, telemetry.Hooks{}, nil); err != nil {
		rep.tally.check(false, "validated stream pass: "+err.Error())
		return rep, nil
	}
	why := v.finish()
	rep.tally.check(why == "", why)
	rep.tally.check(*agg == *first, "validated pass aggregates differ from the timed passes")

	if cfg.traced {
		return rep, traceStream(cfg, rep, path, size, first, wall/time.Duration(passes))
	}
	return rep, nil
}

// traceStream runs one pass with the scanner, scheduler and sink
// wrapped, inside a sim span.
func traceStream(cfg runConfig, rep *report, path string, size int64, want *sim.Aggregates, untracedPass time.Duration) error {
	tr := newTracer()
	counters := telemetry.NewCounters()
	counters.SampleCap = 1024
	agg := &sim.Aggregates{}
	sink := &tracedSink{sink: agg}
	var src *tracedSource
	var ts *tracedScheduler
	var res *sim.Result
	var err error
	t0 := tr.now()
	run := tr.do("sim.run", 0, 1, func(int64) {
		res, err = streamPass(path, sink, counters.Hooks(), func(s sim.Source, c *sched.Composite) (sim.Source, sim.Scheduler) {
			src, ts = &tracedSource{src: s}, &tracedScheduler{c: c}
			return src, ts
		})
	})
	wall := tr.now() - t0
	if err != nil {
		rep.tally.check(false, "traced stream pass: "+err.Error())
		return nil
	}
	rep.tally.check(*agg == *want, "traced pass aggregates differ from the untraced passes")
	var bfTry, bfWin int64
	for _, v := range counters.BackfillAttempts {
		bfTry += v
	}
	for _, v := range counters.BackfillSuccesses {
		bfWin += v
	}
	mt := rep.metrics
	mt["sched.startable_s"] = ts.startable.total.Seconds()
	mt["sched.startable_calls"] = float64(ts.startable.n)
	mt["sched.starts_per_call"] = ratio(ts.started, ts.startable.n)
	mt["sched.notify_s"] = ts.notify.total.Seconds()
	mt["sched.backfill_yield"] = ratio(bfWin, bfTry)
	mt["profile.ops"] = float64(counters.Profile.Total())
	mt["profile.earliest_fit"] = float64(counters.Profile.EarliestFit)
	mt["profile.reserve"] = float64(counters.Profile.Reserve)
	mt["profile.tree_max_depth"] = float64(counters.Profile.TreeMaxDepth)
	mt["queue.ops"] = float64(counters.Queue.Total())
	mt["queue.fit_queries"] = float64(counters.Queue.FitQueries)
	mt["queue.steps"] = float64(counters.Queue.Steps)
	mt["queue.rebuilds"] = float64(counters.Queue.Rebuilds)
	mt["sim.engine_self_s"] = (run.dur() - ts.startable.total - ts.notify.total - src.next.total - sink.emit.total).Seconds()
	mt["sim.events"] = float64(res.Events)
	mt["sim.sink_s"] = sink.emit.total.Seconds()
	mt["sim.max_queue"] = float64(res.MaxQueue)
	mt["trace.scan_s"] = src.next.total.Seconds()
	mt["trace.scan_ns_per_job"] = float64(src.next.total.Nanoseconds()) / streamJobs
	mt["trace.bytes_per_job"] = float64(size) / streamJobs
	mt["run.trace_overhead_s"] = (wall - untracedPass).Seconds()
	mt["run.uncovered_share"] = 1 - covered([]span{run}, t0, t0+wall).Seconds()/wall.Seconds()
	return writeTrace(cfg, "swf-stream", tr, map[string]*fold{
		"sched.startable": &ts.startable, "sched.notify": &ts.notify,
		"trace.scan": &src.next, "sim.sink": &sink.emit,
	})
}

// validatingSink checks every finalized allocation of a fault-free
// stream run under bounded memory: each job appears once, starts no
// earlier than its submission, runs for min(runtime, estimate) and is
// killed exactly when its runtime exceeds the estimate, allocations
// arrive in completion order, and the nodes in use never exceed the
// machine. Capacity is swept lazily: every job still unreported ends
// no earlier than the latest reported end, so it started no earlier
// than that end minus the longest possible estimate, and usage before
// that instant is final.
type validatingSink struct {
	nodes    int
	maxLimit int64
	seen     []bool
	n        int64
	lastEnd  int64
	edges    edgeHeap
	used     int
	err      string
}

func newValidatingSink(nodes int, maxLimit int64, jobs int) *validatingSink {
	return &validatingSink{nodes: nodes, maxLimit: maxLimit, seen: make([]bool, jobs+1)}
}

func (v *validatingSink) fail(format string, args ...any) {
	if v.err == "" {
		v.err = fmt.Sprintf(format, args...)
	}
}

// Emit implements sim.Sink; it records the first violation and keeps
// accepting so the run completes.
func (v *validatingSink) Emit(a sim.Allocation) error {
	j := a.Job
	v.n++
	want := j.Runtime
	if j.Estimate < want {
		want = j.Estimate
	}
	switch {
	case int(j.ID) < 0 || int(j.ID) >= len(v.seen) || v.seen[j.ID]:
		v.fail("job %d reported twice or out of range", j.ID)
		return nil
	case a.Aborted:
		v.fail("job %d aborted in a fault-free run", j.ID)
	case a.Start < j.Submit:
		v.fail("job %d starts at %d before its submission %d", j.ID, a.Start, j.Submit)
	case a.End-a.Start != want || want > v.maxLimit:
		v.fail("job %d ran %d, want %d", j.ID, a.End-a.Start, want)
	case a.Killed != (j.Runtime > j.Estimate):
		v.fail("job %d killed=%v with runtime %d, estimate %d", j.ID, a.Killed, j.Runtime, j.Estimate)
	case j.Nodes < 1 || j.Nodes > v.nodes:
		v.fail("job %d has %d nodes", j.ID, j.Nodes)
	case a.End < v.lastEnd:
		v.fail("job %d ends at %d, reported after an end at %d", j.ID, a.End, v.lastEnd)
	}
	v.seen[j.ID] = true
	v.lastEnd = a.End
	heap.Push(&v.edges, edge{at: a.Start, delta: j.Nodes})
	heap.Push(&v.edges, edge{at: a.End, delta: -j.Nodes})
	v.sweep(a.End - v.maxLimit)
	return nil
}

// sweep applies every capacity edge strictly before the frontier, ends
// before starts at the same instant.
func (v *validatingSink) sweep(frontier int64) {
	for v.edges.Len() > 0 && v.edges[0].at < frontier {
		e := heap.Pop(&v.edges).(edge)
		v.used += e.delta
		if v.used > v.nodes {
			v.fail("%d nodes in use at %d on a %d-node machine", v.used, e.at, v.nodes)
		}
	}
}

// finish sweeps the rest and returns the first violation, or "".
func (v *validatingSink) finish() string {
	v.sweep(1<<63 - 1)
	if v.used != 0 {
		v.fail("%d nodes still in use after the last job", v.used)
	}
	if v.n != int64(len(v.seen)-1) {
		v.fail("%d allocations for %d jobs", v.n, len(v.seen)-1)
	}
	return v.err
}

type edge struct {
	at    int64
	delta int
}

type edgeHeap []edge

func (h edgeHeap) Len() int { return len(h) }
func (h edgeHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].delta < h[j].delta
}
func (h edgeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *edgeHeap) Push(x any)   { *h = append(*h, x.(edge)) }
func (h *edgeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
