package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

func benchQueue(n int) []*job.Job {
	r := rand.New(rand.NewSource(7))
	jobs := make([]*job.Job, n)
	for i := range jobs {
		est := int64(1 + r.Intn(43200))
		jobs[i] = &job.Job{
			ID: job.ID(i), Nodes: 1 + r.Intn(256),
			Estimate: est, Runtime: 1 + r.Int63n(est),
		}
	}
	return jobs
}

// BenchmarkSMARTComputePlan measures one SMART replanning pass (bins,
// shelves, Smith sort) at several queue depths.
func BenchmarkSMARTComputePlan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			o := NewSMARTOrder(FFIA, Config{MachineNodes: 256})
			q := benchQueue(n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = o.computePlan(q)
			}
		})
	}
}

// BenchmarkPSRSComputePlan measures one PSRS replanning pass (ratio
// sort, preemptive schedule, bin conversion).
func BenchmarkPSRSComputePlan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			o := NewPSRSOrder(Config{MachineNodes: 256})
			q := benchQueue(n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = o.computePlan(q)
			}
		})
	}
}

// BenchmarkEASYPick measures one EASY backfilling decision over a deep
// queue with a busy machine.
func BenchmarkEASYPick(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			s := NewEASYStarter()
			q := benchQueue(n)
			q[0].Nodes = 256 // blocked head forces the backfill scan
			running := []sim.Running{
				{Job: &job.Job{ID: 90001, Nodes: 250, Estimate: 5000}, Start: 0, EstEnd: 5000},
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Pick(q, 100, 6, running, 256)
			}
		})
	}
}

// BenchmarkConservativePick measures one conservative backfilling pass
// (full reservation rebuild) over a deep queue — the most expensive
// decision in the paper's grid.
func BenchmarkConservativePick(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			s := NewConservativeStarter(0)
			q := benchQueue(n)
			q[0].Nodes = 256
			running := []sim.Running{
				{Job: &job.Job{ID: 90001, Nodes: 250, Estimate: 5000}, Start: 0, EstEnd: 5000},
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Pick(q, 100, 6, running, 256)
			}
		})
	}
}

// BenchmarkQueuePassNoFit measures ONE batched scheduling pass
// (Composite.Startable) over a 20,000-job queue in which nothing fits
// the 8 free nodes — the saturated-machine state a deep backlog spends
// most of its time in. The index answers it in O(log Q) cursor descents
// or one O(1) subtree-minimum lookup. Zero jobs start, so the pass is
// repeatable without rebuilding state between iterations.
func BenchmarkQueuePassNoFit(b *testing.B) {
	const machine, free, queueLen = 256, 8, 20_000
	// One wide job occupies the rest of the machine: EASY and
	// conservative backfilling need a running set to place the head.
	blocker := []sim.Running{{
		Job:   &job.Job{ID: 1 << 30, Nodes: machine - free, Estimate: 3600, Runtime: 3600},
		Start: 0, EstEnd: 3600,
	}}
	for _, c := range []struct {
		name    string
		o       OrderName
		s       StartName
		running []sim.Running
	}{
		{"GG-List", OrderGG, StartList, nil},
		{"FCFS-EASY", OrderFCFS, StartEASY, blocker},
		{"FCFS-Backfilling", OrderFCFS, StartConservative, blocker},
	} {
		b.Run(fmt.Sprintf("%s/queue=%d", c.name, queueLen), func(b *testing.B) {
			alg, err := New(c.o, c.s, Config{MachineNodes: machine})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < queueLen; i++ {
				alg.Submit(&job.Job{ID: job.ID(i), Submit: 0,
					Nodes:    9 + (i*13)%(machine-8), // everything wider than free=8
					Estimate: 600 + int64(i%7)*60, Runtime: 600}, 0)
			}
			b.ResetTimer()
			b.ReportAllocs()
			now := int64(1)
			for i := 0; i < b.N; i++ {
				if picked := alg.Startable(now, free, c.running); len(picked) != 0 {
					b.Fatal("no-fit pass unexpectedly started jobs")
				}
				now++
			}
		})
	}
}

// BenchmarkEngineFCFS measures raw simulator throughput (events/op) with
// the cheapest scheduler.
func BenchmarkEngineFCFS(b *testing.B) {
	jobs := benchQueue(5000)
	var at int64
	r := rand.New(rand.NewSource(9))
	for _, j := range jobs {
		at += int64(r.Intn(60))
		j.Submit = at
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := New(OrderFCFS, StartList, Config{MachineNodes: 256})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunChecked(sim.Machine{Nodes: 256}, job.CloneAll(jobs), alg, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
