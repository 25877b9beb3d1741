package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share req; parent is the id of the
// span that caused it (0 for a root).
type span struct {
	id, parent, req int64
	layer           string
	start, end      time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs f inside a span of the given layer and returns the span's id
// (passed to f so nested calls can name it as their parent).
func (t *tracer) do(layer string, parent, req int64, f func(id int64)) span {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{id: id, parent: parent, req: req, layer: layer, start: time.Since(t.epoch)}
	f(id)
	s.end = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// now is the tracer clock.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (children may overlap each
// other, so their union is subtracted, clipped to the parent).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(kids[s.id], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of the spans' intervals
// clipped to [lo, hi).
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			if x[1] > curB {
				curB = x[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// fold aggregates a call that runs millions of times (Startable,
// Scanner.Next, Emit) in memory: count, total and a log2 histogram of
// durations in nanoseconds. A fold belongs to one goroutine; merge
// folds after the goroutines end.
type fold struct {
	n     int64
	total time.Duration
	hist  [64]int64
}

func (f *fold) add(d time.Duration) {
	f.n++
	f.total += d
	f.hist[bits.Len64(uint64(d))]++
}

func (f *fold) merge(o *fold) {
	f.n += o.n
	f.total += o.total
	for i := range f.hist {
		f.hist[i] += o.hist[i]
	}
}

// tracedScheduler wraps a sched.Composite and folds the time of every
// sim.Scheduler call into per-call totals.
type tracedScheduler struct {
	c         *sched.Composite
	startable fold
	notify    fold
	started   int64
}

var _ sim.Scheduler = (*tracedScheduler)(nil)
var _ sim.DecisionExplainer = (*tracedScheduler)(nil)

func (t *tracedScheduler) Name() string { return t.c.Name() }

func (t *tracedScheduler) Submit(j *job.Job, now int64) {
	t0 := time.Now()
	t.c.Submit(j, now)
	t.notify.add(time.Since(t0))
}

func (t *tracedScheduler) JobStarted(j *job.Job, now int64) {
	t0 := time.Now()
	t.c.JobStarted(j, now)
	t.notify.add(time.Since(t0))
}

func (t *tracedScheduler) JobFinished(j *job.Job, now int64) {
	t0 := time.Now()
	t.c.JobFinished(j, now)
	t.notify.add(time.Since(t0))
}

func (t *tracedScheduler) Startable(now int64, free int, running []sim.Running) []*job.Job {
	t0 := time.Now()
	out := t.c.Startable(now, free, running)
	t.startable.add(time.Since(t0))
	t.started += int64(len(out))
	return out
}

func (t *tracedScheduler) QueueLen() int { return t.c.QueueLen() }

// LastStartDecision forwards the start classification so traced runs
// record the same decision trace (and backfill counts) as direct ones.
func (t *tracedScheduler) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return t.c.LastStartDecision(j)
}

// tracedSource folds the time of every Source.Next call.
type tracedSource struct {
	src  sim.Source
	next fold
}

func (t *tracedSource) Next() (*job.Job, error) {
	t0 := time.Now()
	j, err := t.src.Next()
	t.next.add(time.Since(t0))
	return j, err
}

// tracedSink folds the time of every Sink.Emit call.
type tracedSink struct {
	sink sim.Sink
	emit fold
}

func (t *tracedSink) Emit(a sim.Allocation) error {
	t0 := time.Now()
	err := t.sink.Emit(a)
	t.emit.add(time.Since(t0))
	return err
}

// layerTrace is one layer's line in the trace file.
type layerTrace struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Folded bool    `json:"folded,omitempty"`
	HistNS []int64 `json:"hist_log2_ns,omitempty"`
	MeanNS float64 `json:"mean_ns,omitempty"`
}

// writeTrace writes the traced run's per-layer totals, self times and
// folded histograms to trace-<workload>-seed<N>.json next to the built
// binaries, once the run has ended.
func writeTrace(cfg runConfig, workload string, tr *tracer, folds map[string]*fold) error {
	self := selfTimes(tr.spans)
	layers := map[string]*layerTrace{}
	for _, s := range tr.spans {
		l := layers[s.layer]
		if l == nil {
			l = &layerTrace{}
			layers[s.layer] = l
		}
		l.Spans++
		l.TotalS += s.dur().Seconds()
		l.SelfS += self[s.id].Seconds()
	}
	for name, f := range folds {
		l := &layerTrace{Spans: int(f.n), TotalS: f.total.Seconds(), SelfS: f.total.Seconds(), Folded: true}
		last := 0
		for i, c := range f.hist {
			if c > 0 {
				last = i + 1
			}
		}
		l.HistNS = append([]int64(nil), f.hist[:last]...)
		if f.n > 0 {
			l.MeanNS = float64(f.total.Nanoseconds()) / float64(f.n)
		}
		layers[name] = l
	}
	data, err := json.MarshalIndent(layers, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.bin, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed)), append(data, '\n'), 0o644)
}
