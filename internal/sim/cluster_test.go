package sim

import (
	"testing"

	"jobsched/internal/job"
)

// TestClusterAbortAndRestart walks the failure path: the newest job is
// aborted, restarted under a new seq, and its stale completion still
// defines an event instant without finishing the new attempt.
func TestClusterAbortAndRestart(t *testing.T) {
	var c Cluster
	c.AddFree(4)
	a, b := mkJob(1, 0, 100, 100, 2), mkJob(2, 0, 50, 50, 2)
	if err := c.Add(a, 0, 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(b, 0, 50, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(mkJob(3, 0, 10, 10, 1), 0, 10, 2); err == nil {
		t.Fatal("Add accepted a job wider than the free nodes")
	}
	if err := c.Add(b, 0, 50, 2); err == nil {
		t.Fatal("Add accepted a job that is already running")
	}

	// Equal starts: the larger ID is the newest.
	c.AddFree(-1)
	r, ok := c.AbortNewest()
	if !ok || r.Job != b || c.Free() != 1 || c.Len() != 1 {
		t.Fatalf("AbortNewest = %v, %v; free %d, running %d", r.Job, ok, c.Free(), c.Len())
	}
	c.AddFree(1) // repaired
	if err := c.Add(b, 20, 70, 2); err != nil {
		t.Fatal(err)
	}

	if at, ok := c.NextEnd(); !ok || at != 50 {
		t.Fatalf("NextEnd = %d, %v; want the aborted attempt's instant 50", at, ok)
	}
	if j := c.Finish(50); j != nil {
		t.Fatalf("Finish(50) = %v; the aborted attempt must not complete the restart", j)
	}
	for _, want := range []struct {
		at  int64
		job *job.Job
	}{{70, b}, {100, a}} {
		if at, _ := c.NextEnd(); at != want.at {
			t.Fatalf("NextEnd = %d, want %d", at, want.at)
		}
		if j := c.Finish(want.at); j != want.job {
			t.Fatalf("Finish(%d) = %v, want %v", want.at, j, want.job)
		}
		if j := c.Finish(want.at); j != nil {
			t.Fatalf("second Finish(%d) = %v, want nil", want.at, j)
		}
	}
	if _, ok := c.NextEnd(); ok || c.Len() != 0 || c.Free() != 4 {
		t.Fatalf("drained cluster: ending %v, running %d, free %d", ok, c.Len(), c.Free())
	}
}
