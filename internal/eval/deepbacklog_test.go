package eval

import (
	"runtime"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

// deepBacklogJobs builds a deterministic workload whose whole job
// population is submitted at t=0, so the waiting queue is n deep from
// the first scheduling pass. Runtimes are uniform (completions cluster
// into few distinct instants, keeping the pass count — and this test's
// wall clock, including under -race — bounded) while widths mix 1–8-node
// jobs with periodic machine-wide blockers, so conservative and EASY
// backfilling both make nontrivial reservation decisions at full depth.
func deepBacklogJobs(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		w := 1 + (i*7)%8
		if i%199 == 198 {
			w = 256 // head blocker: forces reservations and backfill
		}
		jobs[i] = &job.Job{
			ID:       job.ID(i),
			Submit:   0,
			Nodes:    w,
			Runtime:  60,
			Estimate: 60 + int64(i%4)*30,
		}
	}
	return jobs
}

// TestDeepBacklogDeterminism is the 100k-queue gate for the worker
// pool: over a backlog at least 100_000 jobs deep, the rendered
// evaluation tables must be byte-identical across worker-pool sizes
// (1 vs GOMAXPROCS). It runs under -race in the tier-1 race-focus step,
// so the pass buffers and scratch profiles the batch path reuses are
// also checked for cross-goroutine sharing. The same backlog's
// profile-backend leg (tree vs the brute-force reference) lives in
// package sched, next to the backend seam (TestDeepBacklogBackendIndependence).
func TestDeepBacklogDeterminism(t *testing.T) {
	const n = 110_000
	jobs := deepBacklogJobs(n)
	m := sim.Machine{Nodes: 256}

	render := func(workers int) string {
		t.Helper()
		g, err := Run("deep", m, jobs, Unweighted, Options{
			Parallel:         true,
			Workers:          workers,
			MaxBackfillDepth: 4,
			Orders:           []sched.OrderName{sched.OrderFCFS},
			Starts:           []sched.StartName{sched.StartConservative, sched.StartEASY},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Cells {
			c := &g.Cells[i]
			if c.MaxQueue < 100_000 {
				t.Fatalf("%s/%s: backlog only reached %d jobs, want >= 100000",
					c.Order, c.Start, c.MaxQueue)
			}
		}
		var sb strings.Builder
		if err := g.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	want := render(1)
	if got := render(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("tables diverged for workers=N:\n--- workers=1\n%s\n--- workers=%d\n%s",
			want, runtime.GOMAXPROCS(0), got)
	}
}
