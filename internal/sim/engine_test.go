package sim

import (
	"slices"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/telemetry"
)

// fifoScheduler is a minimal correct scheduler: strict FCFS greedy list.
type fifoScheduler struct {
	queue []*job.Job
}

func (s *fifoScheduler) Name() string { return "test-fifo" }
func (s *fifoScheduler) Submit(j *job.Job, now int64) {
	s.queue = append(s.queue, j)
}
func (s *fifoScheduler) JobStarted(j *job.Job, now int64) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}
func (s *fifoScheduler) JobFinished(j *job.Job, now int64) {}
func (s *fifoScheduler) Startable(now int64, free int, running []Running) []*job.Job {
	if len(s.queue) > 0 && s.queue[0].Nodes <= free {
		return []*job.Job{s.queue[0]}
	}
	return nil
}
func (s *fifoScheduler) QueueLen() int { return len(s.queue) }

func mkJob(id int, submit, runtime, estimate int64, nodes int) *job.Job {
	return &job.Job{
		ID: job.ID(id), Submit: submit, Runtime: runtime,
		Estimate: estimate, Nodes: nodes,
	}
}

func TestRunSequentialJobs(t *testing.T) {
	// Two 4-node jobs on a 4-node machine: must run back to back.
	jobs := []*job.Job{
		mkJob(0, 0, 100, 100, 4),
		mkJob(1, 0, 50, 50, 4),
	}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	a0 := res.Schedule.ByJobID(0)
	a1 := res.Schedule.ByJobID(1)
	if a0.Start != 0 || a0.End != 100 {
		t.Errorf("job 0: [%d,%d], want [0,100]", a0.Start, a0.End)
	}
	if a1.Start != 100 || a1.End != 150 {
		t.Errorf("job 1: [%d,%d], want [100,150]", a1.Start, a1.End)
	}
}

func TestRunParallelJobsShareMachine(t *testing.T) {
	jobs := []*job.Job{
		mkJob(0, 0, 100, 100, 2),
		mkJob(1, 0, 100, 100, 2),
	}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []job.ID{0, 1} {
		a := res.Schedule.ByJobID(id)
		if a.Start != 0 {
			t.Errorf("job %d start = %d, want 0", id, a.Start)
		}
	}
}

func TestRunRespectsSubmitTimes(t *testing.T) {
	jobs := []*job.Job{mkJob(0, 500, 10, 10, 1)}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Schedule.ByJobID(0); a.Start != 500 {
		t.Errorf("start = %d, want 500 (submission)", a.Start)
	}
}

func TestRunKillAtLimit(t *testing.T) {
	// Runtime exceeds the estimate: the machine cancels the job at the
	// limit (Example 5 rule 2).
	jobs := []*job.Job{mkJob(0, 0, 200, 150, 1)}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Schedule.ByJobID(0)
	if a.End-a.Start != 150 {
		t.Errorf("effective runtime = %d, want 150 (killed at limit)", a.End-a.Start)
	}
	if !a.Killed {
		t.Error("Killed flag not set")
	}
}

func TestRunFreedNodesReusableSameInstant(t *testing.T) {
	// Job 1 needs the nodes job 0 frees at t=100; it must start exactly
	// at 100, not 101.
	jobs := []*job.Job{
		mkJob(0, 0, 100, 100, 4),
		mkJob(1, 10, 20, 20, 4),
	}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Schedule.ByJobID(1); a.Start != 100 {
		t.Errorf("start = %d, want 100", a.Start)
	}
}

func TestRunRejectsInvalidJob(t *testing.T) {
	jobs := []*job.Job{mkJob(0, 0, 10, 10, 500)} // wider than machine
	if _, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestRunRejectsBadMachine(t *testing.T) {
	if _, err := Run(Machine{}, nil, &fifoScheduler{}, Options{}); err == nil {
		t.Fatal("zero-node machine accepted")
	}
}

// overcommitScheduler tries to start a job wider than the free nodes.
type overcommitScheduler struct{ fifoScheduler }

func (s *overcommitScheduler) Startable(now int64, free int, running []Running) []*job.Job {
	if len(s.queue) > 0 {
		return []*job.Job{s.queue[0]} // ignores free
	}
	return nil
}

func TestRunDetectsOvercommit(t *testing.T) {
	jobs := []*job.Job{
		mkJob(0, 0, 100, 100, 3),
		mkJob(1, 0, 100, 100, 3),
	}
	_, err := Run(Machine{Nodes: 4}, jobs, &overcommitScheduler{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "free") {
		t.Fatalf("overcommit not detected: %v", err)
	}
}

// stallScheduler never starts anything.
type stallScheduler struct{ fifoScheduler }

func (s *stallScheduler) Startable(now int64, free int, running []Running) []*job.Job {
	return nil
}

func TestRunDetectsStalledScheduler(t *testing.T) {
	jobs := []*job.Job{mkJob(0, 0, 10, 10, 1)}
	_, err := Run(Machine{Nodes: 4}, jobs, &stallScheduler{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "waiting") {
		t.Fatalf("stall not detected: %v", err)
	}
}

func TestRunMaxTimeAborts(t *testing.T) {
	jobs := []*job.Job{mkJob(0, 1000000, 10, 10, 1)}
	_, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{MaxTime: 100})
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("MaxTime not enforced: %v", err)
	}
}

func TestRunMeasuresSchedulerTime(t *testing.T) {
	jobs := []*job.Job{mkJob(0, 0, 10, 10, 1), mkJob(1, 5, 10, 10, 1)}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{MeasureCPU: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedulerTime <= 0 {
		t.Error("SchedulerTime not measured")
	}
}

func TestRunEventAndQueueAccounting(t *testing.T) {
	jobs := []*job.Job{
		mkJob(0, 0, 100, 100, 4),
		mkJob(1, 1, 10, 10, 4),
		mkJob(2, 2, 10, 10, 4),
	}
	res, err := Run(Machine{Nodes: 4}, jobs, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue != 2 {
		t.Errorf("MaxQueue = %d, want 2", res.MaxQueue)
	}
	if res.Events == 0 {
		t.Error("Events not counted")
	}
}

func TestRunEmptyWorkload(t *testing.T) {
	res, err := Run(Machine{Nodes: 4}, nil, &fifoScheduler{}, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Allocs) != 0 {
		t.Error("allocations for empty workload")
	}
}

func TestRunRunningViewHidesActualRuntime(t *testing.T) {
	// The Running view must expose EstEnd = start + estimate even when
	// the actual runtime is shorter.
	probe := &runningProbe{}
	jobs := []*job.Job{
		mkJob(0, 0, 10, 1000, 2), // finishes at 10, estimated 1000
		mkJob(1, 5, 10, 10, 4),   // arrives while 0 runs; cannot start
	}
	if _, err := Run(Machine{Nodes: 4}, jobs, probe, Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	if !probe.sawEstEnd {
		t.Error("scheduler never saw EstEnd = start + estimate")
	}
}

type runningProbe struct {
	fifoScheduler
	sawEstEnd bool
}

func (s *runningProbe) Startable(now int64, free int, running []Running) []*job.Job {
	for _, r := range running {
		if r.Job.ID == 0 && r.EstEnd == r.Start+1000 {
			s.sawEstEnd = true
		}
	}
	return s.fifoScheduler.Startable(now, free, running)
}

// scriptScheduler starts queued jobs strictly in a fixed ID order, as
// many per pass as fit, so tests control the engine's start order.
type scriptScheduler struct {
	order  []job.ID
	queued map[job.ID]*job.Job
}

func (s *scriptScheduler) Name() string { return "test-script" }
func (s *scriptScheduler) Submit(j *job.Job, now int64) {
	if s.queued == nil {
		s.queued = make(map[job.ID]*job.Job)
	}
	s.queued[j.ID] = j
}
func (s *scriptScheduler) JobStarted(j *job.Job, now int64) {
	delete(s.queued, j.ID)
	s.order = s.order[1:]
}
func (s *scriptScheduler) JobFinished(j *job.Job, now int64) {}
func (s *scriptScheduler) Startable(now int64, free int, running []Running) []*job.Job {
	var out []*job.Job
	for _, id := range s.order {
		j := s.queued[id]
		if j == nil || j.Nodes > free {
			break
		}
		out = append(out, j)
		free -= j.Nodes
	}
	return out
}
func (s *scriptScheduler) QueueLen() int { return len(s.queued) }

// TestSameInstantCompletionsInStartOrder pins the completion tie-break:
// jobs finishing at one instant reach the Sink and the EventFinish trace
// in the order they started, whatever their IDs or start times.
func TestSameInstantCompletionsInStartOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		jobs  []*job.Job
		order []job.ID
	}{
		{
			// One instant, one pass, start order unrelated to ID order.
			name: "same-start",
			jobs: []*job.Job{
				mkJob(1, 0, 10, 10, 1), mkJob(2, 0, 10, 10, 1),
				mkJob(3, 0, 10, 10, 1), mkJob(4, 0, 10, 10, 1),
			},
			order: []job.ID{3, 1, 4, 2},
		},
		{
			// Different start instants, one end instant: job 2 starts
			// first, job 1 later, both end at 10.
			name: "staggered-start",
			jobs: []*job.Job{
				mkJob(2, 0, 10, 10, 1), mkJob(1, 5, 5, 5, 1),
			},
			order: []job.ID{2, 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sunk []job.ID
			var rec telemetry.Buffer
			opt := Options{
				Sink:     sinkFunc(func(a Allocation) error { sunk = append(sunk, a.Job.ID); return nil }),
				Recorder: &rec,
			}
			s := &scriptScheduler{order: append([]job.ID(nil), tc.order...)}
			if _, err := Run(Machine{Nodes: 4}, tc.jobs, s, opt); err != nil {
				t.Fatal(err)
			}
			var finished []job.ID
			for _, ev := range rec.Events() {
				if ev.Type == telemetry.EventFinish {
					if ev.At != 10 {
						t.Fatalf("job %d finished at %d, want 10", ev.Job, ev.At)
					}
					finished = append(finished, job.ID(ev.Job))
				}
			}
			if !slices.Equal(sunk, tc.order) {
				t.Errorf("sink order %v, want start order %v", sunk, tc.order)
			}
			if !slices.Equal(finished, tc.order) {
				t.Errorf("EventFinish order %v, want start order %v", finished, tc.order)
			}
		})
	}
}
