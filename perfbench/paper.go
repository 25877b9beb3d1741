package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"jobsched/internal/eval"
	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

// paperNodes is the paper's batch partition.
const paperNodes = 256

// defaultSeed is the seed the committed results/table3_*.csv were
// produced with (evaluate -full -seed 1): the paper realization.
const defaultSeed = 1

var paperCases = []eval.Case{eval.Unweighted, eval.Weighted}

// paperOptions are the `evaluate -full` grid options.
func paperOptions() eval.Options {
	return eval.Options{
		Parallel:         true,
		Validate:         true,
		FastConservative: true,
		Workers:          runtime.NumCPU(),
	}
}

// tableRow is one committed Table 3 cell.
type tableRow struct {
	order, start, value string
	maxQueue, makespan  int64
}

// readTable3 loads results/table3_<case>.csv.
func readTable3(root string, c eval.Case) ([]tableRow, error) {
	f, err := os.Open(filepath.Join(root, "results", "table3_"+c.String()+".csv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table3 %s: %w", c, err)
	}
	var rows []tableRow
	for _, r := range recs[1:] {
		if len(r) < 7 {
			return nil, fmt.Errorf("table3 %s: short row %v", c, r)
		}
		mq, err1 := strconv.ParseInt(r[5], 10, 64)
		ms, err2 := strconv.ParseInt(r[6], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("table3 %s: bad row %v", c, r)
		}
		rows = append(rows, tableRow{order: r[0], start: r[1], value: r[2], maxQueue: mq, makespan: ms})
	}
	return rows, nil
}

// gridMismatch compares a grid against the committed rows cell by cell
// (value printed as the CSV prints it, max queue, makespan) and names
// the first difference; "" means identical.
func gridMismatch(g *eval.Grid, want []tableRow) string {
	if len(g.Cells) != len(want) {
		return fmt.Sprintf("%s: %d cells, committed table has %d", g.Case, len(g.Cells), len(want))
	}
	for i, c := range g.Cells {
		w := want[i]
		got := tableRow{order: string(c.Order), start: string(c.Start),
			value: strconv.FormatFloat(c.Value, 'g', -1, 64), maxQueue: int64(c.MaxQueue), makespan: c.Makespan}
		if got != w {
			return fmt.Sprintf("%s %s/%s: got value=%s max_queue=%d makespan=%d, committed %s/%s value=%s max_queue=%d makespan=%d",
				g.Case, got.order, got.start, got.value, got.maxQueue, got.makespan,
				w.order, w.start, w.value, w.maxQueue, w.makespan)
		}
	}
	return ""
}

// belowBound names the first cell whose objective is below the grid's
// theoretical lower bound (impossible for a valid schedule); "" if none.
func belowBound(g *eval.Grid) string {
	for _, c := range g.Cells {
		if c.Err != "" {
			return fmt.Sprintf("%s %s/%s: %s", g.Case, c.Order, c.Start, c.Err)
		}
		if !(c.Value >= g.LowerBound) {
			return fmt.Sprintf("%s %s/%s: value %g below the lower bound %g", g.Case, c.Order, c.Start, c.Value, g.LowerBound)
		}
	}
	return ""
}

// seededScale is the scale divisor of the seeded realization, as in
// `evaluate -scale 8`: 1/8 of the jobs over 1/8 of the span.
const seededScale = 8

// ctcJobs generates the CTC-like model on the 256-node partition,
// scaled down by the divisor (1 = paper scale: 79,164 jobs, of which
// 79,006 survive the width filter for seed 1, as in Table 1).
func ctcJobs(seed int64, scale int) []*job.Job {
	c := workload.DefaultCTCConfig()
	c.Jobs /= scale
	c.SpanSeconds /= int64(scale)
	c.Seed = seed
	jobs, _ := trace.FilterMaxNodes(workload.CTC(c), paperNodes)
	return jobs
}

// runPaperGrid is the paper's Table 3 through eval.Run with the
// `evaluate -full` options, both objectives, on two inputs: the paper
// realization (seed 1 at paper scale, the input of the committed
// results/table3_*.csv, checked cell by cell on every run) and a seeded
// realization at 1/8 scale. The seeded part is small on purpose: the
// cost of a full-scale realization depends on how deep its overload
// backlog grows, which swings grid time by about a quarter from seed to
// seed and would drown any code change in input noise. The pair repeats
// until the run time is spent (at least once).
func runPaperGrid(cfg runConfig) (*report, error) {
	rep := newReport()
	var inputs [2][]*job.Job
	for i := 0; i < setupRepeats; i++ {
		// Drop the previous repetition's inputs so its garbage is not
		// collected inside the next timed set-up.
		inputs = [2][]*job.Job{}
		runtime.GC()
		t0 := time.Now()
		inputs = [2][]*job.Job{ctcJobs(defaultSeed, 1), ctcJobs(cfg.seed, seededScale)}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	want := map[eval.Case][]tableRow{}
	for _, c := range paperCases {
		rows, err := readTable3(cfg.root, c)
		if err != nil {
			return nil, err
		}
		want[c] = rows
	}
	m := sim.Machine{Nodes: paperNodes}
	rep.note("sizes: %d jobs (paper realization) + %d jobs (seed %d at 1/%d scale), %d nodes, 2 objectives x 13 cells each, %d workers, FastConservative",
		len(inputs[0]), len(inputs[1]), cfg.seed, seededScale, paperNodes, runtime.NumCPU())

	stopHeap := watchLiveHeap()
	start := time.Now()
	var simJobs int64
	var grids []*eval.Grid
	for rounds := 0; rounds == 0 || time.Since(start).Seconds() < cfg.seconds; rounds++ {
		for in, jobs := range inputs {
			for _, c := range paperCases {
				g, err := eval.Run("CTC workload", m, jobs, c, paperOptions())
				if err != nil {
					rep.tally.check(false, "eval.Run: "+err.Error())
					stopHeap()
					return rep, nil
				}
				why := belowBound(g)
				rep.tally.check(why == "", why)
				if in == 0 {
					why := gridMismatch(g, want[c])
					rep.tally.check(why == "", why)
					grids = append(grids, g)
				}
				simJobs += int64(len(g.Cells) * len(jobs))
				rep.tally.ok(int64(len(g.Cells) * len(jobs)))
			}
		}
	}
	wall := time.Since(start)
	live := stopHeap()
	rounds := len(grids) / 2
	rep.metrics["jobs_per_s"] = float64(simJobs) / wall.Seconds()
	rep.metrics["live_heap_mb"] = live
	rep.note("sim_jobs_per_s = %.6g over %d rounds (%d cells, %.3fs wall)", rep.metrics["jobs_per_s"], rounds, 52*rounds, wall.Seconds())
	if cfg.traced {
		// The traced pass covers the paper realization only; the
		// untraced reference is its share of the round.
		paperWall := grids[0].Duration + grids[1].Duration
		if err := tracePaperGrid(cfg, rep, m, inputs[0], grids[:2], paperWall); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// gridCells enumerates the paper grid in eval's order: every order x
// every start policy, Garey&Graham only with its own list scheduler.
func gridCells() [][2]string {
	var cells [][2]string
	for _, o := range sched.GridOrders() {
		if o == sched.OrderGG {
			cells = append(cells, [2]string{string(o), string(sched.StartList)})
			continue
		}
		for _, s := range sched.GridStarts() {
			cells = append(cells, [2]string{string(o), string(s)})
		}
	}
	return cells
}

// cellTrace is what one traced cell measured.
type cellTrace struct {
	ts       *tracedScheduler
	counters *telemetry.Counters
	res      *sim.Result
	value    float64
	evalSpan span
	simSpan  span
	err      error
}

// tracePaperGrid re-runs one grid of both objectives cell by cell with a
// span around each cell (eval) and its simulation (sim), the scheduler
// wrapped (sched) and telemetry counters attached (profile, queue). The
// cells run on a pool of the same size eval uses, and every traced cell
// must reproduce the untraced eval.Run value.
func tracePaperGrid(cfg runConfig, rep *report, m sim.Machine, jobs []*job.Job, untraced []*eval.Grid, untracedWall time.Duration) error {
	tr := newTracer()
	workers := paperOptions().Workers
	cells := gridCells()
	var traces []*cellTrace
	t0 := tr.now()
	for ci, c := range paperCases {
		out := make([]*cellTrace, len(cells))
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i] = traceCell(tr, m, jobs, c, cells[i], int64(ci*len(cells)+i+1))
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
		for i, ct := range out {
			if ct.err != nil {
				rep.tally.check(false, "traced cell: "+ct.err.Error())
				return nil
			}
			u := untraced[ci].Cells[i]
			rep.tally.check(ct.value == u.Value && ct.res.MaxQueue == u.MaxQueue,
				fmt.Sprintf("traced %s/%s value %g differs from eval.Run %g", cells[i][0], cells[i][1], ct.value, u.Value))
		}
		traces = append(traces, out...)
	}
	tracedWall := tr.now() - t0

	var cellS dist
	var startable, notify fold
	var engineSelf time.Duration
	var started, events, maxQueue, bfTry, bfWin int64
	var prof, depth, efit, reserve, qops, qfit, qsteps, qrebuilds int64
	var roots []span
	for _, ct := range traces {
		cellS.add(ct.evalSpan.dur().Seconds())
		roots = append(roots, ct.evalSpan)
		startable.merge(&ct.ts.startable)
		notify.merge(&ct.ts.notify)
		started += ct.ts.started
		// sim.Run's self time includes its Validate pass over the schedule.
		engineSelf += ct.simSpan.dur() - ct.ts.startable.total - ct.ts.notify.total
		events += int64(ct.res.Events)
		if int64(ct.res.MaxQueue) > maxQueue {
			maxQueue = int64(ct.res.MaxQueue)
		}
		for _, v := range ct.counters.BackfillAttempts {
			bfTry += v
		}
		for _, v := range ct.counters.BackfillSuccesses {
			bfWin += v
		}
		p := &ct.counters.Profile
		prof += p.Total()
		efit += p.EarliestFit
		reserve += p.Reserve
		if p.TreeMaxDepth > depth {
			depth = p.TreeMaxDepth
		}
		q := &ct.counters.Queue
		qops += q.Total()
		qfit += q.FitQueries
		qsteps += q.Steps
		qrebuilds += q.Rebuilds
	}
	mt := rep.metrics
	mt["eval.cell_s.max"] = cellS.max()
	mt["eval.cell_s.sum"] = cellS.sum()
	mt["eval.cell_s.n"] = float64(cellS.n())
	mt["eval.pool_idle_share"] = 1 - cellS.sum()/(float64(workers)*tracedWall.Seconds())
	mt["sched.startable_s"] = startable.total.Seconds()
	mt["sched.startable_calls"] = float64(startable.n)
	mt["sched.starts_per_call"] = ratio(started, startable.n)
	mt["sched.notify_s"] = notify.total.Seconds()
	mt["sched.backfill_yield"] = ratio(bfWin, bfTry)
	mt["profile.ops"] = float64(prof)
	mt["profile.earliest_fit"] = float64(efit)
	mt["profile.reserve"] = float64(reserve)
	mt["profile.tree_max_depth"] = float64(depth)
	mt["queue.ops"] = float64(qops)
	mt["queue.fit_queries"] = float64(qfit)
	mt["queue.steps"] = float64(qsteps)
	mt["queue.rebuilds"] = float64(qrebuilds)
	mt["sim.engine_self_s"] = engineSelf.Seconds()
	mt["sim.events"] = float64(events)
	mt["sim.max_queue"] = float64(maxQueue)
	mt["run.trace_overhead_s"] = (tracedWall - untracedWall).Seconds()
	mt["run.uncovered_share"] = 1 - covered(roots, t0, t0+tracedWall).Seconds()/tracedWall.Seconds()
	rep.note("traced grid: %.3fs wall vs %.3fs untraced", tracedWall.Seconds(), untracedWall.Seconds())
	return writeTrace(cfg, "paper-grid", tr, map[string]*fold{"sched.startable": &startable, "sched.notify": &notify})
}

// traceCell simulates one grid cell as eval.Run does (fresh scheduler,
// deep-copied jobs, validated schedule), inside eval and sim spans.
func traceCell(tr *tracer, m sim.Machine, jobs []*job.Job, c eval.Case, cell [2]string, req int64) *cellTrace {
	ct := &cellTrace{counters: telemetry.NewCounters()}
	ct.counters.SampleCap = 1024
	ct.evalSpan = tr.do("eval.cell", 0, req, func(id int64) {
		alg, err := sched.New(sched.OrderName(cell[0]), sched.StartName(cell[1]), sched.Config{
			MachineNodes:     m.Nodes,
			Weight:           c.WeightFunc(),
			FastConservative: paperOptions().FastConservative,
			Hooks:            ct.counters.Hooks(),
		})
		if err != nil {
			ct.err = err
			return
		}
		ct.ts = &tracedScheduler{c: alg}
		cloned := job.CloneAll(jobs)
		ct.simSpan = tr.do("sim.run", id, req, func(int64) {
			ct.res, ct.err = sim.Run(m, cloned, ct.ts, sim.Options{Validate: true, Recorder: ct.counters})
		})
		if ct.err == nil {
			ct.value = c.Metric().Eval(ct.res.Schedule)
		}
	})
	return ct
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
