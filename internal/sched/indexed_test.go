package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// The indexed-queue layer maintains a queue.Index mirror of every order
// policy's slice order. These tests pin the mirror op-for-op (the index
// enumerates exactly the slice order after every Push/Remove, for all
// four order policies), pin the batched pass against the Pick-until-nil
// loop state by state, and gate the alloc-free width scan.

// indexedOrderers builds one instance of each order policy (both SMART
// variants) with the index enabled — the differential subjects.
func indexedOrderers(nodes int) []IndexedOrderer {
	cfg := Config{MachineNodes: nodes}.withDefaults()
	return []IndexedOrderer{
		NewFCFSOrder(string(OrderFCFS)),
		NewFCFSOrder("Garey&Graham"),
		NewPSRSOrder(cfg),
		NewSMARTOrder(FFIA, cfg),
		NewSMARTOrder(NFIW, cfg),
	}
}

// TestIndexedOrdererMatchesSlice drives every order policy through a
// long random Push/Remove sequence and checks after each operation that
// the index enumerates exactly the slice order: same jobs, same
// sequence, same length, and order statistics (Rank, Select) consistent
// with the enumeration.
func TestIndexedOrdererMatchesSlice(t *testing.T) {
	const nodes = 64
	for _, o := range indexedOrderers(nodes) {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			var pending []*job.Job
			nextID := job.ID(0)
			now := int64(0)
			check := func(op string) {
				t.Helper()
				want := o.Ordered(now)
				ix := o.OrderedIter(now)
				if ix.Len() != len(want) || o.Len() != len(want) {
					t.Fatalf("%s: index len %d, orderer len %d, slice len %d",
						op, ix.Len(), o.Len(), len(want))
				}
				got := ix.AppendOrdered(nil)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: position %d: index has job %d, slice has job %d",
							op, i, got[i].ID, want[i].ID)
					}
				}
				if len(want) > 0 {
					k := r.Intn(len(want))
					j, slot := ix.Select(k)
					if j != want[k] {
						t.Fatalf("%s: Select(%d) = job %v, want job %d", op, k, j, want[k].ID)
					}
					if rank := ix.Rank(slot); rank != k {
						t.Fatalf("%s: Rank(Select(%d)) = %d", op, k, rank)
					}
				}
			}
			for step := 0; step < 1200; step++ {
				now++
				if len(pending) == 0 || r.Intn(10) < 6 {
					j := &job.Job{
						ID:       nextID,
						Nodes:    1 + r.Intn(nodes),
						Submit:   now,
						Estimate: int64(1 + r.Intn(5000)),
					}
					j.Runtime = j.Estimate
					nextID++
					pending = append(pending, j)
					o.Push(j, now)
					check(fmt.Sprintf("step %d push %d", step, j.ID))
				} else {
					// Bias removals toward the head: that is what the engine
					// does (jobs start from the front of the order).
					k := r.Intn(len(pending))
					if r.Intn(2) == 0 {
						k = r.Intn((len(pending) + 3) / 4)
					}
					j := pending[k]
					pending = append(pending[:k], pending[k+1:]...)
					o.Remove(j, now)
					check(fmt.Sprintf("step %d remove %d", step, j.ID))
				}
			}
		})
	}
}

// pickUntilNil is the reference scheduling pass at one instant: Pick
// against Ordered(now), start the pick (remove it from the order, debit
// its nodes, add it to the running set), repeat until nil. It returns
// the started jobs with their classified decisions.
func pickUntilNil(c *Composite, now int64, free int, running []sim.Running) ([]job.ID, []telemetry.Decision) {
	running = append([]sim.Running(nil), running...)
	var ids []job.ID
	var decs []telemetry.Decision
	for c.order.Len() > 0 && free > 0 {
		j := c.start.Pick(c.order.Ordered(now), now, free, running, c.machine)
		if j == nil {
			break
		}
		d, _ := c.LastStartDecision(j)
		ids, decs = append(ids, j.ID), append(decs, d)
		c.JobStarted(j, now)
		free -= j.Nodes
		running = append(running, sim.Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)})
	}
	return ids, decs
}

// startablePass drives the same instant through Composite.Startable the
// way the engine does: start every returned batch, call again until nil.
// It also returns the largest batch seen.
func startablePass(c *Composite, now int64, free int, running []sim.Running) ([]job.ID, []telemetry.Decision, int) {
	running = append([]sim.Running(nil), running...)
	var ids []job.ID
	var decs []telemetry.Decision
	largest := 0
	for {
		batch := c.Startable(now, free, running)
		if len(batch) == 0 {
			return ids, decs, largest
		}
		largest = max(largest, len(batch))
		for _, j := range batch {
			d, _ := c.LastStartDecision(j)
			ids, decs = append(ids, j.ID), append(decs, d)
		}
		for _, j := range batch {
			c.JobStarted(j, now)
			free -= j.Nodes
			running = append(running, sim.Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)})
		}
	}
}

// TestStartableMatchesPickLoop is the state-level differential behind
// TestBatchedPassesMatchSequential: on random queue states — mid-epoch
// replanner states, outage-shrunk free counts and pending drains
// included — one scheduling instant driven through Composite.Startable
// (the batched PickManyIndexed pass, epoch windows and pass memo
// included) must start exactly the jobs, in exactly the order and with
// exactly the decisions, of pickUntilNil on a twin scheduler.
func TestStartableMatchesPickLoop(t *testing.T) {
	const nodes = 16
	multi := 0
	for _, tc := range batchGridCases(nodes) {
		r := rand.New(rand.NewSource(17))
		for state := 0; state < 40; state++ {
			batched, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			reference, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			now := int64(r.Intn(600))
			var pending []*job.Job
			for i, n := 0, 1+r.Intn(120); i < n; i++ {
				at := now * int64(i) / int64(n)
				jb := &job.Job{ID: job.ID(i), Submit: at, Nodes: 1 + r.Intn(nodes),
					Estimate: int64(1 + r.Intn(500))}
				jb.Runtime = jb.Estimate
				batched.Submit(jb, at)
				reference.Submit(jb, at)
				pending = append(pending, jb)
				// Start a few earlier jobs along the way, after a planning
				// point, so replanned orders sit mid-epoch.
				if r.Intn(8) == 0 {
					batched.order.Ordered(at)
					reference.order.Ordered(at)
					k := r.Intn(len(pending))
					batched.JobStarted(pending[k], at)
					reference.JobStarted(pending[k], at)
					pending = append(pending[:k], pending[k+1:]...)
				}
			}
			var running []sim.Running
			busy := 0
			for id := 1000; busy < nodes && r.Intn(3) > 0; id++ {
				w := 1 + r.Intn(nodes-busy)
				running = append(running, sim.Running{
					Job:   &job.Job{ID: job.ID(id), Nodes: w, Estimate: 700},
					Start: now - 100, EstEnd: now + 1 + int64(r.Intn(600)),
				})
				busy += w
			}
			free := nodes - busy - r.Intn(3) // an outage may hold a few nodes
			if free < 0 {
				free = 0
			}

			gotIDs, gotDecs, largest := startablePass(batched, now, free, running)
			wantIDs, wantDecs := pickUntilNil(reference, now, free, running)
			if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
				t.Fatalf("%s state %d (now %d, free %d): Startable started %v, the Pick loop %v",
					tc.name, state, now, free, gotIDs, wantIDs)
			}
			for i := range gotDecs {
				if gotDecs[i] != wantDecs[i] {
					t.Fatalf("%s state %d: decision %d for job %d diverged\nStartable: %+v\nPick loop: %+v",
						tc.name, state, i, gotIDs[i], gotDecs[i], wantDecs[i])
				}
			}
			if largest > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no state started more than one job per Startable call; the batched pass was never exercised")
	}
}

// TestIndexedScanZeroAlloc gates the width-pruned pass: a Garey&Graham
// pass over a deep queue of too-wide jobs must allocate nothing — the
// whole scan is cursor descents over the width index.
func TestIndexedScanZeroAlloc(t *testing.T) {
	o := NewFCFSOrder("Garey&Graham")
	for i := 0; i < 4096; i++ {
		o.Push(&job.Job{ID: job.ID(i), Nodes: 8, Estimate: 100}, int64(i))
	}
	s := NewGareyGrahamStarter()
	ix := o.OrderedIter(5000)
	// Warm the picked/decision buffers so steady-state capacity is measured.
	s.PickManyIndexed(ix, 5000, 4, nil, 16, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		s.PickManyIndexed(ix, 5000, 4, nil, 16, 0)
	}); allocs != 0 {
		t.Fatalf("width-pruned no-fit pass allocates %v objects per run, want 0", allocs)
	}
}
