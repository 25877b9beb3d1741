// Command bench is the repo's reproducible perf harness: it runs the
// availability-profile microbenches and the table-grid benches through
// testing.Benchmark and writes a machine-readable before/after report
// (default BENCH_1.json) that seeds the repo's perf trajectory.
//
// "Before" numbers come from two sources, labeled per entry:
//
//   - reference-oracle-live: the brute-force profile.Reference measured in
//     this very run on identical inputs — the original implementation is
//     kept alive precisely so the baseline stays reproducible; and
//   - seed-commit-recorded: grid numbers measured once on the seed commit
//     (the optimized kernel replaced the old code in place, so those
//     can't be re-run; the recorded values are embedded below).
//
// A second report (default BENCH_2.json) measures the telemetry layer:
// the nil-recorder fast path against the recorded pre-telemetry grid
// numbers, and the enabled-path costs (counters, JSONL to a discard
// sink). The quick smoke run additionally gates the nil-recorder path:
// it fails when the conservative grid bench regresses beyond the noise
// band of the pre-telemetry commit.
//
// A third report (default BENCH_3.json) is the deep-backlog family:
// ≥100k-step profiles and ≥100k-job queues, where the O(log S) tree
// kernel and the batched scheduling passes are measured against the
// live array (skip-ahead) kernel and the sequential one-start-per-pass
// protocol. Deep entries run at -benchtime=1x: a single iteration of
// the quadratic "before" side is already seconds.
//
// A fifth report (default BENCH_5.json) is the deep-queue family: the
// indexed pending-queue layer (internal/queue) against the sequential
// one-start-per-call protocol over the order's slice. Fixed-shape no-fit
// pass micros (queue=20000, identical in
// quick and full mode, so bench-compare can track them) measure one
// scheduling pass over a queue nothing in which fits; full mode adds
// the same micros at queue=100000 and end-to-end 100k-queued cells for
// every order policy × {List, depth-bounded Backfilling, EASY} plus
// Garey&Graham, each cross-checked makespan-identical between the two
// protocols.
//
// -cpuprofile / -memprofile write standard pprof profiles of the whole
// run (`go tool pprof` reads them); the heap profile is taken at exit.
//
// Usage:
//
//	go run ./cmd/bench                                    # full run, writes BENCH_1/2/3/4/5.json
//	go run ./cmd/bench -quick -out "" -out2 "" -out3 "" -out4 "" -out5 ""  # CI smoke: tiny benchtime, no files, perf gate
//	go run ./cmd/bench -quick -cpuprofile cpu.pprof ...   # profile the harness itself
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"jobsched/internal/eval"
	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/profile"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

// Entry is one benchmark's before/after record.
type Entry struct {
	Name         string             `json:"name"`
	BeforeSource string             `json:"before_source"`
	BeforeNsOp   float64            `json:"before_ns_per_op"`
	AfterNsOp    float64            `json:"after_ns_per_op"`
	Speedup      float64            `json:"speedup"`
	BeforeAllocs int64              `json:"before_allocs_per_op"`
	AfterAllocs  int64              `json:"after_allocs_per_op"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_1.json schema.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Note       string  `json:"note"`
	Entries    []Entry `json:"benchmarks"`
}

// Seed-commit grid measurements (go test -bench -benchtime=3x on the
// commit preceding the optimized profile kernel; see DESIGN.md §perf).
const (
	seedTable3NsOp     = 1191177118
	seedTable3Allocs   = 1614206
	seedBacklogNsOp    = 1154678122
	seedBacklogAllocs  = 92809
	seedTable3RefUnw   = 48836.392871445736
	seedTable3RefWgt   = 2.0620088639669605e+10
	seedBacklogRefUnw  = 3.33655521125e+06
	seedBacklogMaxQLen = 752
)

// Pre-telemetry grid measurements (the commit before the telemetry layer
// landed, same machine and flags), the "before" side of BENCH_2.json:
// the nil-recorder fast path must stay within noise of these.
const (
	pr1BacklogNsOp   = 348246859 // full backlog grid, -benchtime 0.5s
	pr1BacklogAllocs = 57250
	// pr1QuickBacklogNsOp is the quick-mode (-benchtime 10x) backlog grid
	// mean. Pre-telemetry runs on an idle container scattered ±4%, but on
	// a loaded shared host even the min-of-3 drifts up to ~25% above the
	// recorded mean (measured on the unmodified seed commit), so the
	// smoke gate fails only beyond 40%. A real per-event cost in the hot
	// loop — the grid issues millions of events per op — shows up at
	// multiples of the baseline, far above any load blip.
	pr1QuickBacklogNsOp = 4757849
	quickGateFactor     = 1.4
)

func main() {
	quick := flag.Bool("quick", false, "tiny benchtime smoke run (CI gate)")
	out := flag.String("out", "BENCH_1.json", "output path; empty writes the JSON to stdout only")
	out2 := flag.String("out2", "BENCH_2.json", "telemetry-overhead report path; empty writes to stdout only")
	out3 := flag.String("out3", "BENCH_3.json", "deep-backlog report path; empty writes to stdout only")
	out4 := flag.String("out4", "BENCH_4.json", "deep-stream report path; empty writes to stdout only")
	out5 := flag.String("out5", "BENCH_5.json", "deep-queue report path; empty writes to stdout only")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	benchtime := flag.String("benchtime", "", "override the default benchtime (10x quick, 0.5s full); deep families still run at 1x")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// Not deferred: fatal() exits via os.Exit, so the profile is
		// stopped explicitly at the end of the happy path instead.
	}

	testing.Init()
	switch {
	case *benchtime != "":
		flag.Set("test.benchtime", *benchtime)
	case *quick:
		flag.Set("test.benchtime", "10x")
	default:
		flag.Set("test.benchtime", "0.5s")
	}

	rep := &Report{
		Schema:     "jobsched-bench/v1",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "before = naive availability profile (live profile.Reference oracle, " +
			"or recorded seed-commit grid numbers); after = optimized skip-ahead kernel",
	}

	rep.Entries = append(rep.Entries, microEntries()...)
	rep.Entries = append(rep.Entries, gridEntries(*quick)...)

	emit(rep, *out)

	rep2 := &Report{
		Schema:     "jobsched-bench/v2-telemetry",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "telemetry layer overhead on the conservative grid bench: before = " +
			"pre-telemetry commit (recorded) or the nil-recorder path (live), " +
			"after = this commit with the labeled telemetry configuration",
	}
	rep2.Entries = telemetryEntries(*quick)
	emit(rep2, *out2)

	rep3 := &Report{
		Schema:     "jobsched-bench/v3-deep-backlog",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "deep-backlog family (>=100k profile steps / >=100k queued jobs): " +
			"before = array skip-ahead kernel or sequential one-start-per-pass " +
			"protocol (both live), after = O(log S) tree kernel with batched passes",
	}
	rep3.Entries = deepEntries(*quick)
	emit(rep3, *out3)

	rep4 := &Report{
		Schema:     "jobsched-bench/v4-deep-stream",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "deep-stream family (million/10M-job runs): before = materialize the " +
			"whole workload and retain the full schedule (slice path, live), " +
			"after = streaming arrival source + aggregate sink under a hard " +
			"memory limit; peak-heap metrics carry the memory story",
	}
	rep4.Entries = streamEntries(*quick)
	emit(rep4, *out4)

	rep5 := &Report{
		Schema:     "jobsched-bench/v5-deep-queue",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "deep-queue family (indexed pending-queue layer): before = the sequential " +
			"one-start-per-call protocol over the order's slice (the path wrapped start " +
			"policies take), live; after = queue.Index passes with width-pruned scans, " +
			"O(1) no-fit prechecks and epoch-window batching",
	}
	rep5.Entries = queueEntries(*quick)
	emit(rep5, *out5)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *quick {
		// Smoke gate: the nil-recorder path must stay within the noise
		// band of the pre-telemetry commit.
		nsOp := rep2.Entries[0].AfterNsOp
		if limit := float64(pr1QuickBacklogNsOp) * quickGateFactor; nsOp > limit {
			fatal(fmt.Errorf("telemetry-disabled backlog grid took %.0f ns/op, limit %.0f "+
				"(pre-telemetry %d +%d%%): the nil-recorder fast path regressed",
				nsOp, limit, int64(pr1QuickBacklogNsOp), int64(quickGateFactor*100-100)))
		}
	}
}

func emit(rep *Report, path string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if path != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func entry(name, source string, before, after testing.BenchmarkResult) Entry {
	e := Entry{
		Name:         name,
		BeforeSource: source,
		BeforeNsOp:   float64(before.NsPerOp()),
		AfterNsOp:    float64(after.NsPerOp()),
		BeforeAllocs: before.AllocsPerOp(),
		AfterAllocs:  after.AllocsPerOp(),
	}
	if e.AfterNsOp > 0 {
		e.Speedup = e.BeforeNsOp / e.AfterNsOp
	}
	return e
}

// microEntries measures the profile kernel against the live Reference
// oracle on identical inputs.
func microEntries() []Entry {
	const steps = 4096

	opt := buildProfile(steps)
	ref := buildReference(steps)

	fitQueries := func(fit func(int, int64, int64) int64) func(b *testing.B) {
		return func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := 1 + r.Intn(200)
				d := int64(1 + r.Intn(10000))
				_ = fit(w, d, 0)
			}
		}
	}
	fitEntry := entry("profile/EarliestFit/steps=4096", "reference-oracle-live",
		testing.Benchmark(fitQueries(ref.EarliestFit)),
		testing.Benchmark(fitQueries(opt.EarliestFit)))

	minFree := func(mf func(int64, int64) int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var t int64
			for i := 0; i < b.N; i++ {
				_ = mf(t, t+600)
				t += 37
				if t > 400000 {
					t = 0
				}
			}
		}
	}
	minFreeEntry := entry("profile/MinFreeMonotone/steps=4096", "reference-oracle-live",
		testing.Benchmark(minFree(ref.MinFree)),
		testing.Benchmark(minFree(opt.MinFree)))

	// The conservative-pass macro shape: place a 512-job queue on a fresh
	// profile. Before: a new Reference per pass (the old starter allocated
	// a fresh profile every pass); after: one scratch Profile, Reset.
	type shape struct {
		w int
		d int64
	}
	r := rand.New(rand.NewSource(3))
	queue := make([]shape, 512)
	for i := range queue {
		queue[i] = shape{w: 1 + r.Intn(200), d: int64(60 + r.Intn(20000))}
	}
	passBefore := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := profile.NewReference(256, 0)
			for _, j := range queue {
				at := p.EarliestFit(j.w, j.d, 0)
				p.Reserve(j.w, at, at+j.d)
			}
		}
	})
	scratch := profile.New(256, 0)
	passAfter := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch.Reset(256, 0)
			for _, j := range queue {
				at := scratch.EarliestFit(j.w, j.d, 0)
				scratch.Reserve(j.w, at, at+j.d)
			}
		}
	})
	passEntry := entry("profile/ConservativePass/queue=512", "reference-oracle-live",
		passBefore, passAfter)

	return []Entry{fitEntry, minFreeEntry, passEntry}
}

// gridEntries measures the table-grid benches (after side) against the
// recorded seed-commit numbers, and captures the reference-cell objective
// values so schedule-quality regressions are visible next to the timing.
func gridEntries(quick bool) []Entry {
	m := sim.Machine{Nodes: 256}

	ctcJobs := 2500
	backlogJobs := 800
	if quick {
		ctcJobs, backlogJobs = 300, 150
	}

	cfg := workload.DefaultCTCConfig()
	cfg.SpanSeconds = cfg.SpanSeconds * int64(ctcJobs) / int64(cfg.Jobs)
	cfg.Jobs = ctcJobs
	cfg.Seed = 1
	ctc, _ := trace.FilterMaxNodes(workload.CTC(cfg), 256)

	backlog := backlogWorkload(backlogJobs)

	table3Metrics := map[string]float64{}
	table3 := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range []eval.Case{eval.Unweighted, eval.Weighted} {
				g, err := eval.Run("Table 3", m, ctc, c, eval.Options{Parallel: true})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					key := "ref_unweighted_s"
					if c == eval.Weighted {
						key = "ref_weighted_s"
					}
					table3Metrics[key] = g.Ref.Value
				}
			}
		}
	})
	t3 := entry("grid/Table3_CTC", "seed-commit-recorded",
		recorded(seedTable3NsOp, seedTable3Allocs), table3)
	t3.Metrics = table3Metrics
	if !quick {
		t3.Metrics["seed_ref_unweighted_s"] = seedTable3RefUnw
		t3.Metrics["seed_ref_weighted_s"] = seedTable3RefWgt
	}

	backlogMetrics := map[string]float64{}
	backlogRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := eval.Run("Backlog", m, backlog, eval.Unweighted, eval.Options{
				Parallel: true,
				Orders:   []sched.OrderName{sched.OrderFCFS, sched.OrderPSRS},
				Starts:   []sched.StartName{sched.StartConservative, sched.StartEASY},
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				backlogMetrics["ref_unweighted_s"] = g.Ref.Value
				var maxQ int
				for _, c := range g.Cells {
					if c.MaxQueue > maxQ {
						maxQ = c.MaxQueue
					}
				}
				backlogMetrics["max_queue_jobs"] = float64(maxQ)
			}
		}
	})
	bl := entry("grid/TableBacklog_Conservative", "seed-commit-recorded",
		recorded(seedBacklogNsOp, seedBacklogAllocs), backlogRes)
	bl.Metrics = backlogMetrics
	if !quick {
		bl.Metrics["seed_ref_unweighted_s"] = seedBacklogRefUnw
		bl.Metrics["seed_max_queue_jobs"] = seedBacklogMaxQLen
	}

	// Sanity: the optimized kernel must not change a single scheduling
	// decision. The quick CI gate downsizes the workloads, so reference
	// values only comparable at full scale.
	if !quick {
		if v := table3Metrics["ref_unweighted_s"]; v != seedTable3RefUnw {
			fatal(fmt.Errorf("Table 3 reference cell moved: %v != %v (schedule changed!)", v, seedTable3RefUnw))
		}
		if v := backlogMetrics["ref_unweighted_s"]; v != seedBacklogRefUnw {
			fatal(fmt.Errorf("backlog reference cell moved: %v != %v (schedule changed!)", v, seedBacklogRefUnw))
		}
	}
	return []Entry{t3, bl}
}

// backlogWorkload is the saturated randomized workload of the backlog
// grid bench (shared by the perf entries and the telemetry entries so
// the numbers are comparable).
func backlogWorkload(jobs int) []*job.Job {
	bcfg := workload.DefaultRandomizedConfig()
	bcfg.Jobs = jobs
	bcfg.MaxGap = 150
	bcfg.Seed = 9
	return workload.Randomized(bcfg)
}

// telemetryEntries measures the decision-tracing layer on the
// conservative grid bench (BENCH_2.json): the nil-recorder fast path
// against the recorded pre-telemetry numbers, then the enabled paths —
// per-cell run counters and a JSONL recorder draining to io.Discard —
// against the live nil-recorder run.
func telemetryEntries(quick bool) []Entry {
	m := sim.Machine{Nodes: 256}
	backlogJobs := 800
	if quick {
		backlogJobs = 150
	}
	backlog := backlogWorkload(backlogJobs)

	grid := func(hooks func(sched.OrderName, sched.StartName) telemetry.Hooks) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := eval.Run("Backlog", m, backlog, eval.Unweighted, eval.Options{
					Parallel: true,
					Orders:   []sched.OrderName{sched.OrderFCFS, sched.OrderPSRS},
					Starts:   []sched.StartName{sched.StartConservative, sched.StartEASY},
					Hooks:    hooks,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// One grid op is ~350 ms in full mode, so a single testing.Benchmark
	// sample is only a couple of iterations and machine noise dominates.
	// Take the best of a few runs per configuration — min-of-N is the
	// standard noise-robust statistic for before/after comparisons.
	// Quick mode gates on an absolute recorded constant, so a single
	// sample under a transient load spike fails spuriously; min-of-3 is
	// cheap there (~50 ms per sample) and keeps the gate honest.
	runs := 3
	best := func(f func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(f)
		for i := 1; i < runs; i++ {
			if c := testing.Benchmark(f); c.NsPerOp() < r.NsPerOp() {
				r = c
			}
		}
		return r
	}

	// Parallel cells each get their own recorder from the Hooks factory,
	// so the enabled-path benches stay race-free.
	disabled := best(grid(nil))
	counters := best(grid(func(sched.OrderName, sched.StartName) telemetry.Hooks {
		return telemetry.NewCounters().Hooks()
	}))
	jsonl := best(grid(func(sched.OrderName, sched.StartName) telemetry.Hooks {
		return telemetry.Hooks{Recorder: telemetry.NewJSONL(io.Discard)}
	}))

	overhead := func(before, after testing.BenchmarkResult) float64 {
		if before.NsPerOp() == 0 {
			return 0
		}
		return (float64(after.NsPerOp())/float64(before.NsPerOp()) - 1) * 100
	}

	source := "pre-telemetry-commit-recorded"
	baseline := recorded(pr1BacklogNsOp, pr1BacklogAllocs)
	if quick {
		// The recorded baseline was measured at full benchtime; in quick
		// mode only the quick-vs-quick gate in main is meaningful, so the
		// disabled entry compares against the recorded quick mean instead.
		baseline = recorded(pr1QuickBacklogNsOp, 0)
		source = "pre-telemetry-commit-recorded-quick"
	}
	off := entry("telemetry/BacklogGrid_disabled", source, baseline, disabled)
	off.Metrics = map[string]float64{"overhead_pct": overhead(baseline, disabled)}

	cnt := entry("telemetry/BacklogGrid_counters", "nil-recorder-live", disabled, counters)
	cnt.Metrics = map[string]float64{"overhead_pct": overhead(disabled, counters)}

	jl := entry("telemetry/BacklogGrid_jsonlDiscard", "nil-recorder-live", disabled, jsonl)
	jl.Metrics = map[string]float64{"overhead_pct": overhead(disabled, jsonl)}

	return []Entry{off, cnt, jl}
}

// passThroughStarter forwards only Name and Pick, so sched.Compose sees
// no batched pass behind it and selects the one-start-per-call protocol
// — the same path the production admission wrappers take.
type passThroughStarter struct{ sched.Starter }

// sequentialPasses re-composes alg with its start policy behind
// passThroughStarter: the sequential "before" side of the sched benches.
// Config (profile factory included) was applied by sched.New already.
func sequentialPasses(alg *sched.Composite) *sched.Composite {
	return sched.WrapStarter(alg, func(s sched.Starter) sched.Starter { return passThroughStarter{s} })
}

// deepEntries is the BENCH_3.json family: profile queries and whole
// scheduling passes at deep-backlog scale, tree kernel + batched passes
// (after) against the array skip-ahead kernel + sequential protocol
// (before), both measured live. Deep entries run at -benchtime=1x — one
// iteration of the quadratic before side is already seconds — and the
// previous benchtime is restored afterwards.
func deepEntries(quick bool) []Entry {
	prev := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", "1x")
	defer flag.Set("test.benchtime", prev)

	steps := 1 << 17
	queue := 100_000
	jobs := 100_000
	if quick {
		steps, queue, jobs = 1<<12, 2_000, 3_000
	}

	// EarliestFit over a profile whose only fit for a wide job is past
	// every step: the array kernel's skip-ahead must visit each blocking
	// run, the tree's max-pruned descent jumps straight to the tail.
	buildDeep := func(k profile.Kernel) {
		k.Reserve(2, 0, int64(steps)*10)
		for i := 0; i < steps; i++ {
			at := int64(i) * 10
			k.Reserve(1, at, at+5) // free alternates 1/2 across the span
		}
	}
	fitDeep := func(k profile.Kernel) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			span := int64(steps) * 10
			for i := 0; i < b.N; i++ {
				for from := int64(0); from < span; from += span / 64 {
					if k.EarliestFit(3, 50, from) < from {
						b.Fatal("fit before from")
					}
				}
			}
		}
	}
	arrFit := profile.New(4, 0)
	treeFit := profile.NewTree(4, 0)
	buildDeep(arrFit)
	buildDeep(treeFit)
	fitEntry := entry(fmt.Sprintf("profile/EarliestFitDeep/steps=%d", steps),
		"skip-ahead-kernel-live",
		testing.Benchmark(fitDeep(arrFit)), testing.Benchmark(fitDeep(treeFit)))
	fitEntry.Metrics = map[string]float64{"profile_steps": float64(arrFit.StepCount())}

	// A full conservative placement pass at deep scale: every queued job
	// fitted and reserved on one profile. The backlog is capability-
	// style — every job wider than half the machine, durations spread so
	// step boundaries never coalesce — so placements serialize at the
	// growing schedule tail. The array kernel re-scans every occupied
	// step in front of the tail per query (O(n²) total); the tree's
	// max-pruned descent rejects the saturated prefix wholesale and
	// stays O(n log n).
	widths := make([]int, queue)
	durs := make([]int64, queue)
	for i := range widths {
		widths[i] = 129 + (i*7)%64
		durs[i] = 60 + int64(i%1000)*7
	}
	passDeep := func(k profile.Kernel) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.Reset(256, 0)
				for j := range widths {
					at := k.EarliestFit(widths[j], durs[j], 0)
					k.Reserve(widths[j], at, at+durs[j])
				}
			}
		}
	}
	arrPass := profile.New(256, 0)
	treePass := profile.NewTree(256, 0)
	passEntry := entry(fmt.Sprintf("profile/ConservativePassDeep/queue=%d", queue),
		"skip-ahead-kernel-live",
		testing.Benchmark(passDeep(arrPass)), testing.Benchmark(passDeep(treePass)))
	passEntry.Metrics = map[string]float64{"final_profile_steps": float64(treePass.StepCount())}

	// End-to-end: simulate a deep backlog (every job submitted at t=0)
	// through the engine. Before: sequential one-start-per-pass protocol
	// on the array kernel; after: batched passes on the tree kernel. The
	// runs must agree on the schedule — the makespans are cross-checked.
	deepJobs := func() []*job.Job {
		js := make([]*job.Job, jobs)
		for i := range js {
			w := 1 + (i*7)%8
			if i%199 == 198 {
				w = 256
			}
			js[i] = &job.Job{ID: job.ID(i), Submit: 0, Nodes: w,
				Runtime: 60, Estimate: 60 + int64(i%4)*30}
		}
		return js
	}
	drains := []sim.Failure{{At: 3_000, Nodes: 128, Duration: 600}}
	simDeep := func(cfg sched.Config, o sched.OrderName, s sched.StartName, sequential bool, makespan *int64) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alg, err := sched.New(o, s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if sequential {
					alg = sequentialPasses(alg)
				}
				res, err := sim.Run(sim.Machine{Nodes: 256}, deepJobs(), alg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				*makespan = res.Schedule.Makespan()
			}
		}
	}
	arrayFactory := func(n int, from int64) profile.Kernel { return profile.New(n, from) }
	schedEntries := []Entry{}
	for _, c := range []struct {
		name string
		cfg  sched.Config
		s    sched.StartName
	}{
		{"FCFS-Backfilling-depth4", sched.Config{MachineNodes: 256, MaxBackfillDepth: 4}, sched.StartConservative},
		{"FCFS-EASY-drains", sched.Config{MachineNodes: 256, Announced: drains}, sched.StartEASY},
	} {
		var mkBefore, mkAfter int64
		beforeCfg := c.cfg
		beforeCfg.ProfileFactory = arrayFactory
		before := testing.Benchmark(simDeep(beforeCfg, sched.OrderFCFS, c.s, true, &mkBefore))
		after := testing.Benchmark(simDeep(c.cfg, sched.OrderFCFS, c.s, false, &mkAfter))
		if mkBefore != mkAfter {
			fatal(fmt.Errorf("deep backlog %s: batched makespan %d != sequential %d (schedule changed!)",
				c.name, mkAfter, mkBefore))
		}
		e := entry(fmt.Sprintf("sched/DeepBacklogPass/jobs=%d/%s", jobs, c.name),
			"sequential-slice-live", before, after)
		e.Metrics = map[string]float64{"makespan_s": float64(mkAfter)}
		schedEntries = append(schedEntries, e)
	}

	return append([]Entry{fitEntry, passEntry}, schedEntries...)
}

// queueEntries is the BENCH_5.json family: the indexed pending-queue
// layer against the sequential slice protocol. The no-fit pass micros run at
// a fixed queue=20000 in both quick and full mode — shape-invariant, so
// bench-compare can track them across commits — and full mode adds the
// same micros at queue=100000 plus the end-to-end deep-queue grid.
func queueEntries(quick bool) []Entry {
	entries := queuePassMicros(20_000)
	if !quick {
		entries = append(entries, queuePassMicros(100_000)...)
	}
	return append(entries, deepQueueGrid(quick)...)
}

// queuePassMicros measures ONE scheduling pass over a deep queue in
// which nothing fits the free nodes — the saturated-machine state a deep
// backlog spends most of its time in. The sequential slice protocol pays
// O(Q) per pass (the Garey&Graham scan, the EASY backfill scan, the
// conservative fits precheck); the index answers the same pass in O(log Q) cursor
// descents (or one O(1) subtree-minimum lookup). Zero jobs start, so the
// pass is repeatable without rebuilding state between iterations.
func queuePassMicros(queueLen int) []Entry {
	const machine = 256
	const free = 8

	mk := func(o sched.OrderName, s sched.StartName, sequential bool) *sched.Composite {
		alg, err := sched.New(o, s, sched.Config{MachineNodes: machine})
		if err != nil {
			fatal(err)
		}
		if sequential {
			alg = sequentialPasses(alg)
		}
		for i := 0; i < queueLen; i++ {
			alg.Submit(&job.Job{ID: job.ID(i), Submit: 0,
				Nodes:    9 + (i*13)%(machine-8), // everything wider than free=8
				Estimate: 600 + int64(i%7)*60, Runtime: 600}, 0)
		}
		return alg
	}
	// One wide job occupies the rest of the machine: EASY needs a running
	// set to compute the head's shadow time.
	blocker := []sim.Running{{
		Job:   &job.Job{ID: 1 << 30, Nodes: machine - free, Estimate: 3600, Runtime: 3600},
		Start: 0, EstEnd: 3600,
	}}
	pass := func(alg *sched.Composite, running []sim.Running) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			now := int64(1)
			for i := 0; i < b.N; i++ {
				if picked := alg.Startable(now, free, running); len(picked) != 0 {
					b.Fatal("no-fit pass unexpectedly started jobs")
				}
				now++
			}
		}
	}

	cells := []struct {
		name    string
		o       sched.OrderName
		s       sched.StartName
		running []sim.Running
	}{
		{"GG-List", sched.OrderGG, sched.StartList, nil},
		{"FCFS-EASY", sched.OrderFCFS, sched.StartEASY, blocker},
		{"FCFS-Backfilling", sched.OrderFCFS, sched.StartConservative, blocker},
	}
	var entries []Entry
	for _, c := range cells {
		before := testing.Benchmark(pass(mk(c.o, c.s, true), c.running))
		after := testing.Benchmark(pass(mk(c.o, c.s, false), c.running))
		e := entry(fmt.Sprintf("sched/QueuePassNoFit/%s/queue=%d", c.name, queueLen),
			"sequential-slice-live", before, after)
		e.Metrics = map[string]float64{"queue_jobs": float64(queueLen)}
		entries = append(entries, e)
	}
	return entries
}

// deepQueueGrid simulates a 100k-job time-zero backlog end to end for
// every order policy × {List, depth-bounded Backfilling, EASY} plus the
// Garey&Graham cell. The before side runs the sequential
// one-start-per-call protocol over the order's slice, the path wrapped
// start policies take. Each cell's makespans are cross-checked: the
// protocols must agree on the schedule.
func deepQueueGrid(quick bool) []Entry {
	prev := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", "1x")
	defer flag.Set("test.benchtime", prev)

	jobs := 100_000
	if quick {
		jobs = 1_500
	}
	mkJobs := func() []*job.Job {
		js := make([]*job.Job, jobs)
		for i := range js {
			w := 1 + (i*7)%8
			if i%199 == 198 {
				w = 256
			}
			js[i] = &job.Job{ID: job.ID(i), Submit: 0, Nodes: w,
				Runtime: 60, Estimate: 60 + int64(i%4)*30}
		}
		return js
	}

	type cell struct {
		name string
		o    sched.OrderName
		s    sched.StartName
		cfg  sched.Config
	}
	var cells []cell
	for _, o := range []sched.OrderName{sched.OrderFCFS, sched.OrderPSRS, sched.OrderSMARTFFIA, sched.OrderSMARTNFIW} {
		cells = append(cells,
			cell{fmt.Sprintf("%s-List", o), o, sched.StartList,
				sched.Config{MachineNodes: 256}},
			cell{fmt.Sprintf("%s-Backfilling-depth4", o), o, sched.StartConservative,
				sched.Config{MachineNodes: 256, MaxBackfillDepth: 4}},
			cell{fmt.Sprintf("%s-EASY", o), o, sched.StartEASY,
				sched.Config{MachineNodes: 256}},
		)
	}
	cells = append(cells, cell{"GareyGraham", sched.OrderGG, sched.StartList,
		sched.Config{MachineNodes: 256}})

	run := func(c cell, before bool, makespan *int64) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alg, err := sched.New(c.o, c.s, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if before {
					alg = sequentialPasses(alg)
				}
				res, err := sim.Run(sim.Machine{Nodes: 256}, mkJobs(), alg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				*makespan = res.Schedule.Makespan()
			}
		}
	}
	var entries []Entry
	const source = "sequential-slice-live"
	for _, c := range cells {
		var mkBefore, mkAfter int64
		before := testing.Benchmark(run(c, true, &mkBefore))
		after := testing.Benchmark(run(c, false, &mkAfter))
		if mkBefore != mkAfter {
			fatal(fmt.Errorf("deep queue %s: indexed makespan %d != %s makespan %d (schedule changed!)",
				c.name, mkAfter, source, mkBefore))
		}
		e := entry(fmt.Sprintf("sched/DeepQueue/jobs=%d/%s", jobs, c.name), source, before, after)
		e.Metrics = map[string]float64{"makespan_s": float64(mkAfter), "queued_jobs": float64(jobs)}
		entries = append(entries, e)
	}
	return entries
}

// peakWatch samples the heap in the background and records the largest
// observed HeapAlloc — the memory side of the streaming before/after
// story. GC once before starting so the previous side's garbage does
// not inflate the baseline.
func peakWatch(peak *uint64) (stop func()) {
	runtime.GC()
	var p atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := p.Load()
			if ms.HeapAlloc <= old || p.CompareAndSwap(old, ms.HeapAlloc) {
				return
			}
		}
	}
	sample()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-quit:
				sample()
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		if v := p.Load(); v > *peak {
			*peak = v
		}
	}
}

// streamEntries is the BENCH_4.json family: million-to-10M-job runs
// where the before side materializes the whole workload and retains the
// full schedule, and the after side streams arrivals from a generator
// and sinks allocations into constant-size aggregates — under a hard
// runtime/debug.SetMemoryLimit ceiling, so a regression back to O(jobs)
// memory aborts the bench instead of merely looking slow. The two sides
// must agree on the metrics: the engine guarantees stream ≡ slice.
func streamEntries(quick bool) []Entry {
	prev := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", "1x")
	defer flag.Set("test.benchtime", prev)

	jobs := 10_000_000
	ingest := 1_000_000
	if quick {
		jobs, ingest = 30_000, 50_000
	}
	const memLimit = int64(256 << 20)
	m := sim.Machine{Nodes: 256}
	cfg := workload.CalibratedStreamConfig(jobs, 256, 0.7, 11)
	newAlg := func() sim.Scheduler {
		alg, err := sched.New(sched.OrderFCFS, sched.StartEASY, sched.Config{MachineNodes: 256})
		if err != nil {
			fatal(err)
		}
		return alg
	}

	// End-to-end simulation: slice path vs streaming path.
	var beforePeak, afterPeak uint64
	var beforeResp, beforeWgt, afterResp, afterWgt float64
	var beforeMk, afterMk int64
	before := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stop := peakWatch(&beforePeak)
			js := workload.Randomized(cfg)
			res, err := sim.Run(m, js, newAlg(), sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			beforeResp = objective.AvgResponseTime{}.Eval(res.Schedule)
			beforeWgt = objective.AvgWeightedResponseTime{}.Eval(res.Schedule)
			beforeMk = res.Schedule.Makespan()
			stop()
		}
	})
	after := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stop := peakWatch(&afterPeak)
			prevLimit := debug.SetMemoryLimit(memLimit)
			src, err := workload.NewStreamer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			agg := &sim.Aggregates{}
			_, err = sim.RunStream(m, src, newAlg(), sim.Options{Sink: agg})
			debug.SetMemoryLimit(prevLimit)
			if err != nil {
				b.Fatal(err)
			}
			afterResp = agg.AvgResponseTime()
			afterWgt = agg.AvgWeightedResponseTime()
			afterMk = agg.Makespan
			stop()
		}
	})
	// The streaming run must reproduce the slice run bit-for-bit on the
	// exactly-summed metrics (response is an integer sum on both sides)
	// and to rounding on the float-accumulated weighted sum.
	if afterResp != beforeResp || afterMk != beforeMk {
		fatal(fmt.Errorf("deep stream: streamed avg response %v / makespan %d != slice %v / %d (schedule changed!)",
			afterResp, afterMk, beforeResp, beforeMk))
	}
	if beforeWgt != 0 && math.Abs(afterWgt-beforeWgt)/beforeWgt > 1e-9 {
		fatal(fmt.Errorf("deep stream: weighted response drifted: %v vs %v", afterWgt, beforeWgt))
	}
	simEntry := entry(fmt.Sprintf("sim/StreamEndToEnd/jobs=%d", jobs),
		"slice-path-live", before, after)
	simEntry.Metrics = map[string]float64{
		"peak_heap_before_mb": float64(beforePeak) / (1 << 20),
		"peak_heap_after_mb":  float64(afterPeak) / (1 << 20),
		"mem_limit_mb":        float64(memLimit) / (1 << 20),
		"avg_response_s":      afterResp,
		"makespan_s":          float64(afterMk),
	}
	if afterPeak > 0 {
		simEntry.Metrics["heap_shrink_factor"] = float64(beforePeak) / float64(afterPeak)
	}

	// SWF ingestion: whole-file slice load vs incremental Scanner.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Computer: "bench", MaxNodes: 256})
	if err != nil {
		fatal(err)
	}
	gen, err := workload.NewStreamer(workload.CalibratedStreamConfig(ingest, 256, 0.7, 12))
	if err != nil {
		fatal(err)
	}
	for {
		j, err := gen.Next()
		if err != nil {
			fatal(err)
		}
		if j == nil {
			break
		}
		if err := w.WriteJob(j); err != nil {
			fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	data := buf.Bytes()

	var readPeak, scanPeak uint64
	var readJobs, scanJobs int
	readBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stop := peakWatch(&readPeak)
			_, js, err := trace.Read(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			readJobs = len(js)
			stop()
		}
	})
	scanBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stop := peakWatch(&scanPeak)
			sc := trace.NewScanner(bytes.NewReader(data), trace.ReadOptions{})
			n := 0
			for {
				j, err := sc.Next()
				if err != nil {
					b.Fatal(err)
				}
				if j == nil {
					break
				}
				n++
			}
			scanJobs = n
			stop()
		}
	})
	if readJobs != scanJobs {
		fatal(fmt.Errorf("deep stream: scanner yielded %d jobs, slice read %d", scanJobs, readJobs))
	}
	ingestEntry := entry(fmt.Sprintf("trace/IngestSWF/jobs=%d", ingest),
		"slice-read-live", readBench, scanBench)
	ingestEntry.Metrics = map[string]float64{
		"swf_bytes":           float64(len(data)),
		"peak_heap_before_mb": float64(readPeak) / (1 << 20),
		"peak_heap_after_mb":  float64(scanPeak) / (1 << 20),
	}

	return []Entry{simEntry, ingestEntry}
}

// recorded wraps seed-commit measurements in a BenchmarkResult so entry()
// can treat recorded and live baselines uniformly.
func recorded(nsPerOp int64, allocs int64) testing.BenchmarkResult {
	return testing.BenchmarkResult{N: 1, T: time.Duration(nsPerOp), MemAllocs: uint64(allocs)}
}

func buildProfile(reservations int) *profile.Profile {
	p := profile.New(256, 0)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < reservations; i++ {
		w := 1 + r.Intn(64)
		d := int64(1 + r.Intn(5000))
		at := p.EarliestFit(w, d, int64(r.Intn(50000)))
		p.Reserve(w, at, at+d)
	}
	return p
}

func buildReference(reservations int) *profile.Reference {
	p := profile.NewReference(256, 0)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < reservations; i++ {
		w := 1 + r.Intn(64)
		d := int64(1 + r.Intn(5000))
		at := p.EarliestFit(w, d, int64(r.Intn(50000)))
		p.Reserve(w, at, at+d)
	}
	return p
}
