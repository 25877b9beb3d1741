// Command perfbench is the repository's benchmark: one seeded command
// that runs a workload against the simulator or the daemon, checks the
// outputs, and prints named metrics.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload paper-grid|swf-stream|serve-replay|all \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the benchmark also times every call it makes into a
// layer (eval, sched, profile, queue, sim, trace, serve) and reports the
// per-layer metrics, the tracing overhead and the uncovered share. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed correctness check prints correct=false with no metrics and
// exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow file-system flush or GC cycle does not move it.
const setupRepeats = 5

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the traced metrics every workload reports (zero where a
// workload never calls the layer).
var perLayer = []metricDef{
	{"eval.cell_s.max", "s", "lower"},
	{"eval.cell_s.sum", "s", "lower"},
	{"eval.cell_s.n", "count", "higher"},
	{"eval.pool_idle_share", "share", "lower"},
	{"sched.startable_s", "s", "lower"},
	{"sched.startable_calls", "count", "lower"},
	{"sched.starts_per_call", "ratio", "higher"},
	{"sched.notify_s", "s", "lower"},
	{"sched.backfill_yield", "ratio", "higher"},
	{"profile.ops", "count", "lower"},
	{"profile.earliest_fit", "count", "lower"},
	{"profile.reserve", "count", "lower"},
	{"profile.tree_max_depth", "count", "lower"},
	{"queue.ops", "count", "lower"},
	{"queue.fit_queries", "count", "lower"},
	{"queue.steps", "count", "lower"},
	{"queue.rebuilds", "count", "lower"},
	{"sim.engine_self_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.sink_s", "s", "lower"},
	{"sim.max_queue", "count", "lower"},
	{"trace.scan_s", "s", "lower"},
	{"trace.scan_ns_per_job", "ns", "lower"},
	{"trace.bytes_per_job", "B", "lower"},
	{"serve.http_self_ms.p50", "ms", "lower"},
	{"serve.http_self_ms.p99", "ms", "lower"},
	{"serve.http_self_ms.n", "count", "higher"},
	{"serve.admission_us.p99", "us", "lower"},
	{"serve.admission_us.n", "count", "higher"},
	{"serve.store_submit_ms.p50", "ms", "lower"},
	{"serve.store_submit_ms.p99", "ms", "lower"},
	{"serve.store_submit_ms.n", "count", "higher"},
	{"serve.store_advance_ms.p50", "ms", "lower"},
	{"serve.store_advance_ms.p99", "ms", "lower"},
	{"serve.store_advance_ms.n", "count", "higher"},
	{"serve.store_info_ms.p50", "ms", "lower"},
	{"serve.store_info_ms.p99", "ms", "lower"},
	{"serve.store_info_ms.n", "count", "higher"},
	{"serve.session_apply_ms.p50", "ms", "lower"},
	{"serve.session_apply_ms.p99", "ms", "lower"},
	{"serve.session_apply_ms.n", "count", "higher"},
	{"serve.fingerprint_ms", "ms", "lower"},
	{"serve.wal_append_ms.p50", "ms", "lower"},
	{"serve.wal_append_ms.p99", "ms", "lower"},
	{"serve.wal_append_ms.n", "count", "higher"},
	{"serve.wal_bytes_per_job", "B", "lower"},
	{"serve.snapshot_commit_ms", "ms", "lower"},
	{"serve.snapshot_capture_ms", "ms", "lower"},
	{"serve.snapshot_bytes", "B", "lower"},
	{"serve.recover_ms", "ms", "lower"},
	{"serve.wal_bytes", "B", "lower"},
	{"serve.wal_records_replayed", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"run.trace_overhead_s", "s", "lower"},
	{"run.uncovered_share", "share", "lower"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// work is a scratch directory inside the checkout, removed at exit.
	work string
	// bin holds the daemon binary the launcher built.
	bin string
	// root is the repository checkout (committed results live here).
	root string
}

// report is what a workload run produces.
type report struct {
	setup   []float64 // seconds, one per set-up repetition
	metrics map[string]float64
	tally   tally
	// info holds the workload's named figures and sizes for the
	// human-readable summary (sample counts included).
	info []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-grid":   runPaperGrid,
	"swf-stream":   runSWFStream,
	"serve-replay": runServeReplay,
}

var workloadOrder = []string{"paper-grid", "swf-stream", "serve-replay"}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "paper-grid, swf-stream, serve-replay, or all")
		seed    = flag.Int64("seed", 1, "workload seed (1 also compares against the committed Table 3)")
		seconds = flag.Float64("seconds", 20, "measurement time per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("bin", ".bench_build/perfbench", "directory holding the built jobschedd")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHost(*seed)

	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, n := range names {
		work, err := os.MkdirTemp(binDir, "work-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, work: work, bin: binDir, root: root}
		rep, err := workloads[n](cfg)
		if rmErr := os.RemoveAll(work); rmErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		rep.metrics["setup_s"] = median(rep.setup)
		fmt.Printf("== %s (seed %d, %gs, trace %d)\n", n, *seed, *seconds, *trace)
		fmt.Printf("  setup_s = median of %.4g\n", rep.setup)
		for _, line := range rep.info {
			fmt.Println("  " + line)
		}
		fmt.Printf("  failed_share = %g (%d of %d operations)\n",
			rep.tally.failedShare(), rep.tally.failed, rep.tally.attempted)
		out.Attempted += rep.tally.attempted
		out.Failed += rep.tally.failed
		if rep.tally.failed > 0 {
			fmt.Printf("  first failure: %s\n", rep.tally.firstFailure)
		}
		if rep.tally.badCheck != "" {
			out.Correct = false
			continue
		}
		for _, d := range defs {
			v, ok := rep.metrics[d.name]
			if !ok && *trace == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", n, d.name)
				os.Exit(1)
			}
			key := d.name
			if len(names) > 1 {
				key = n + "." + d.name
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: d.unit}
			fmt.Printf("  %-28s %.6g %s\n", d.name, v, d.unit)
		}
	}
	if !out.Correct {
		out.Metrics = map[string]jsonMetric{}
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !out.Correct {
		os.Exit(1)
	}
}

// printHost records the host the numbers were taken on.
func printHost(seed int64) {
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(), seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the checkout has
// one; exported trees have none.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// liveHeap averages the heap marked live by each garbage collection it
// sees: the memory a program keeps in steady state. A mean over cycles,
// not the maximum: whether one collection happens to mark during a
// short-lived burst (a snapshot being encoded, a batch being parsed)
// decides the maximum, and that swings by a half between identical runs.
type liveHeap struct {
	mu  sync.Mutex
	sum float64
	n   int
}

func (l *liveHeap) add(mb float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum += mb
	l.n++
}

func (l *liveHeap) meanMB() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.sum / float64(l.n)
}

// watchLiveHeap polls this process's GC cycle count and live heap until
// the returned stop function is called, recording the live heap once
// per cycle it observes. stop returns the mean in MB.
func watchLiveHeap() (stop func() float64) {
	l := &liveHeap{}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				l.add(float64(s[1].Value.Uint64()) / (1 << 20))
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return l.meanMB()
	}
}
