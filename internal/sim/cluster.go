package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"jobsched/internal/job"
)

// Cluster is the machine state of Example 5's model: free nodes, the
// running jobs, and their pending completions. The simulation engine and
// the jobschedd session both drive it, so node accounting and the
// completion tie-break are decided in one place.
//
// Completions at one instant are delivered in start order (the seq the
// caller passes to Add). An aborted attempt's completion stays in the
// heap as a stale entry: it still defines an event instant (NextEnd
// reports it) but Finish skips it.
//
// The zero value is a machine with no nodes; AddFree brings nodes
// online.
type Cluster struct {
	free int
	// running holds the running jobs in ID order; seqs[i] is the start
	// seq of running[i]. view is the copy Running hands out, so a
	// scheduler that sorts its argument cannot corrupt running.
	running []Running
	seqs    []int
	view    []Running
	ends    completionHeap
}

// Free returns the number of unassigned nodes. It is negative between a
// capacity drop (AddFree) and the aborts that absorb it.
func (c *Cluster) Free() int { return c.free }

// Len returns the number of running jobs.
func (c *Cluster) Len() int { return len(c.running) }

// Running returns the running jobs in ID order, in a buffer the next
// call rewrites (the Scheduler contract forbids retaining it past
// Startable).
func (c *Cluster) Running() []Running {
	c.view = append(c.view[:0], c.running...)
	return c.view
}

func (c *Cluster) find(id job.ID) (int, bool) {
	return slices.BinarySearchFunc(c.running, id, func(r Running, id job.ID) int { return cmp.Compare(r.Job.ID, id) })
}

// Add starts j at start, completing at end; seq orders it among the
// completions of its end instant and must be unique. It fails, leaving
// the state untouched, when j does not fit or is already running; the
// error names the job, and the caller adds who started it.
func (c *Cluster) Add(j *job.Job, start, end int64, seq int) error {
	if j.Nodes > c.free {
		return fmt.Errorf("cannot start %v with only %d nodes free", j, c.free)
	}
	i, found := c.find(j.ID)
	if found {
		return fmt.Errorf("cannot start %v: already running", j)
	}
	c.free -= j.Nodes
	c.running = slices.Insert(c.running, i, Running{Job: j, Start: start, EstEnd: job.AddSat(start, j.Estimate)})
	c.seqs = slices.Insert(c.seqs, i, seq)
	heap.Push(&c.ends, completion{at: end, seq: seq, job: j})
	return nil
}

// NextEnd returns the earliest pending completion instant, counting the
// stale completions of aborted attempts.
func (c *Cluster) NextEnd() (int64, bool) {
	if len(c.ends) == 0 {
		return 0, false
	}
	return c.ends[0].at, true
}

// Finish completes the next job ending at now and frees its nodes, or
// returns nil once no completion is left at now. Stale entries at now
// are consumed on the way.
func (c *Cluster) Finish(now int64) *job.Job {
	for len(c.ends) > 0 && c.ends[0].at == now {
		e := heap.Pop(&c.ends).(completion)
		i, found := c.find(e.job.ID)
		if !found || c.seqs[i] != e.seq {
			continue // an aborted attempt
		}
		c.remove(i)
		return e.job
	}
	return nil
}

// AddFree changes the machine's capacity by delta nodes: its size at
// start-up, failures and repairs.
func (c *Cluster) AddFree(delta int) { c.free += delta }

// AbortNewest stops the most recently started job (largest start time,
// ties toward the larger ID) and frees its nodes; its completion goes
// stale. Failure handling aborts the newest job first: it has the least
// sunk work. It reports false when nothing runs.
func (c *Cluster) AbortNewest() (Running, bool) {
	best := -1
	for i, r := range c.running {
		if best < 0 || r.Start >= c.running[best].Start {
			best = i // ID order: a later equal start has the larger ID
		}
	}
	if best < 0 {
		return Running{}, false
	}
	r := c.running[best]
	c.remove(best)
	return r, true
}

func (c *Cluster) remove(i int) {
	c.free += c.running[i].Job.Nodes
	c.running = slices.Delete(c.running, i, i+1)
	c.seqs = slices.Delete(c.seqs, i, i+1)
}

// completion is a pending event in a completionHeap: a job completion
// in the Cluster, a delayed resubmission in the engine.
type completion struct {
	at  int64
	seq int // tie-break: start (or abort) order
	job *job.Job
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
