package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Batched scheduling passes (IndexedStarter.PickManyIndexed, reached
// through Composite.Startable) are specified to be observationally
// equivalent to the Pick-until-nil protocol: the same jobs start at the
// same instants with the same classified decisions, on every grid
// algorithm, with and without announced drains, and regardless of which
// profile kernel backs the starter's scratch state. These tests pin that
// equivalence against pickLoop, a reference scheduler that never enters
// the batched pass.

// pickLoop is the reference protocol: each Startable call returns at
// most start.Pick(order.Ordered(now), …), so the engine's
// Startable-until-nil loop is the Pick-until-nil loop. It reuses the
// Composite's order and start policy — and, through embedding, its queue
// hooks, decision explainer and interrupt plumbing — but never its
// batched pass.
type pickLoop struct{ *Composite }

func (p pickLoop) Startable(now int64, free int, running []sim.Running) []*job.Job {
	if p.order.Len() == 0 || free <= 0 {
		return nil
	}
	if j := p.start.Pick(p.order.Ordered(now), now, free, running, p.machine); j != nil {
		return []*job.Job{j}
	}
	return nil
}

// runTraced simulates jobs under alg and returns the schedule plus the
// recorded start events (decisions included). EventPass/EventBackfill
// counts legitimately differ between the protocols — a batched pass is
// one Startable call and one walk — so only start events are compared.
func runTraced(t *testing.T, alg sim.Scheduler, jobs []*job.Job, nodes int) (*sim.Schedule, []telemetry.Event) {
	t.Helper()
	buf := &telemetry.Buffer{}
	res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true, Recorder: buf})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	var starts []telemetry.Event
	for _, ev := range buf.Events() {
		if ev.Type == telemetry.EventStart {
			starts = append(starts, ev)
		}
	}
	return res.Schedule, starts
}

// scheduleFingerprint renders per-job placements in a canonical order.
func scheduleFingerprint(s *sim.Schedule) string {
	out := ""
	for _, a := range s.Allocs {
		out += fmt.Sprintf("%d@[%d,%d)k=%v;", a.Job.ID, a.Start, a.End, a.Killed)
	}
	return out
}

// batchGridCases enumerates the algorithm configurations under test:
// every grid cell, conservative in exact/fast/depth-bounded flavors,
// with and without announced maintenance windows.
func batchGridCases(nodes int) []struct {
	name string
	mk   func() (*Composite, error)
} {
	drains := []sim.Failure{
		{At: 120, Nodes: nodes, Duration: 60},
		{At: 400, Nodes: nodes / 2, Duration: 100},
	}
	var cases []struct {
		name string
		mk   func() (*Composite, error)
	}
	add := func(name string, o OrderName, s StartName, cfg Config) {
		cfg.MachineNodes = nodes
		cases = append(cases, struct {
			name string
			mk   func() (*Composite, error)
		}{name, func() (*Composite, error) { return New(o, s, cfg) }})
	}
	for _, o := range GridOrders() {
		for _, s := range GridStarts() {
			add(fmt.Sprintf("%s/%s", o, s), o, s, Config{})
		}
	}
	add("FCFS/Backfilling-fast", OrderFCFS, StartConservative, Config{FastConservative: true})
	add("FCFS/Backfilling-depth3", OrderFCFS, StartConservative, Config{MaxBackfillDepth: 3})
	add("FCFS/Backfilling-drains", OrderFCFS, StartConservative, Config{Announced: drains})
	add("FCFS/Backfilling-fast-drains", OrderFCFS, StartConservative,
		Config{FastConservative: true, Announced: drains})
	add("FCFS/EASY-drains", OrderFCFS, StartEASY, Config{Announced: drains})
	add("GG-drains", OrderGG, StartList, Config{Announced: drains})
	return cases
}

// TestBatchedPassesMatchSequential is the end-to-end equivalence gate:
// for every algorithm configuration and several random workloads, the
// batched engine run must produce a byte-identical schedule AND
// identical start events (time, free-node accounting, reason, depth,
// head, shadow, spare) to the pickLoop reference run. The batched pass
// exists to share per-pass work, so over a whole run it must also cost
// no more profile operations than the reference (per pass it saves the
// rebuilds, the rewalks and the confirmation walk, and stops walking
// once nothing left in the queue is narrow enough to start).
func TestBatchedPassesMatchSequential(t *testing.T) {
	const nodes = 16
	for seed := int64(1); seed <= 4; seed++ {
		jobs := randomJobs(rand.New(rand.NewSource(seed)), 250, nodes)
		for _, tc := range batchGridCases(nodes) {
			batched, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			reference, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			var bstats, rstats profile.Stats
			batched.Instrument(telemetry.Hooks{ProfileStats: &bstats})
			reference.Instrument(telemetry.Hooks{ProfileStats: &rstats})

			bs, bev := runTraced(t, batched, jobs, nodes)
			rs, rev := runTraced(t, pickLoop{reference}, jobs, nodes)

			if bf, rf := scheduleFingerprint(bs), scheduleFingerprint(rs); bf != rf {
				t.Fatalf("seed %d %s: batched schedule diverged from the Pick loop\nbatched:   %s\nPick loop: %s",
					seed, tc.name, bf, rf)
			}
			if len(bev) != len(rev) {
				t.Fatalf("seed %d %s: %d start events batched, %d from the Pick loop",
					seed, tc.name, len(bev), len(rev))
			}
			for i := range bev {
				if bev[i] != rev[i] {
					t.Fatalf("seed %d %s: start event %d diverged\nbatched:   %+v\nPick loop: %+v",
						seed, tc.name, i, bev[i], rev[i])
				}
			}
			if b, r := bstats.Total(), rstats.Total(); b > r {
				t.Fatalf("seed %d %s: batched run did %d profile ops, the Pick loop only %d",
					seed, tc.name, b, r)
			}
		}
	}
}

// TestProfileBackendIndependence pins that whole schedules do not depend
// on which kernel backs the starters' scratch profiles: the tree
// (default), the array kernel, and the brute-force reference oracle must
// yield identical schedules and start events for every configuration.
func TestProfileBackendIndependence(t *testing.T) {
	const nodes = 16
	factories := []struct {
		name string
		f    profileFactory
	}{
		{"tree", nil},
		{"array", func(n int, from int64) profile.Kernel { return profile.New(n, from) }},
		{"reference", func(n int, from int64) profile.Kernel { return profile.NewReference(n, from) }},
	}
	jobs := randomJobs(rand.New(rand.NewSource(7)), 200, nodes)
	for _, tc := range batchGridCases(nodes) {
		var baseSched string
		var baseEv []telemetry.Event
		for fi, fac := range factories {
			alg, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			alg.setProfileFactory(fac.f)
			s, ev := runTraced(t, alg, jobs, nodes)
			if fi == 0 {
				baseSched, baseEv = scheduleFingerprint(s), ev
				continue
			}
			if got := scheduleFingerprint(s); got != baseSched {
				t.Fatalf("%s: %s backend diverged from tree\n%s\nvs\n%s",
					tc.name, fac.name, got, baseSched)
			}
			if len(ev) != len(baseEv) {
				t.Fatalf("%s: %s backend has %d start events, tree %d",
					tc.name, fac.name, len(ev), len(baseEv))
			}
			for i := range ev {
				if ev[i] != baseEv[i] {
					t.Fatalf("%s: %s backend start event %d diverged\n%+v\nvs tree\n%+v",
						tc.name, fac.name, i, ev[i], baseEv[i])
				}
			}
		}
	}
}

// startRecorder keeps only the start events of a decision trace, so a
// 100k-job run holds one event per job rather than the whole trace.
type startRecorder struct{ starts []telemetry.Event }

func (r *startRecorder) Record(ev telemetry.Event) {
	if ev.Type == telemetry.EventStart {
		r.starts = append(r.starts, ev)
	}
}

// TestDeepBacklogBackendIndependence is the deep-queue leg of
// TestProfileBackendIndependence: a 110k-job backlog submitted at t=0
// (every job waiting from the first pass; uniform runtimes keep the pass
// count small, periodic machine-wide jobs force reservations) must
// schedule identically — every placement and every start event — on the
// tree kernel and on the brute-force reference, for FCFS with
// depth-bounded conservative backfilling and with drain-aware EASY.
func TestDeepBacklogBackendIndependence(t *testing.T) {
	const n, nodes = 110_000, 256
	jobs := make([]*job.Job, n)
	for i := range jobs {
		w := 1 + (i*7)%8
		if i%199 == 198 {
			w = nodes
		}
		jobs[i] = &job.Job{ID: job.ID(i), Submit: 0, Nodes: w,
			Runtime: 60, Estimate: 60 + int64(i%4)*30}
	}
	reference := func(n int, from int64) profile.Kernel { return profile.NewReference(n, from) }
	for _, c := range []struct {
		name  string
		start StartName
		cfg   Config
	}{
		{"FCFS/Backfilling-depth4", StartConservative, Config{MachineNodes: nodes, MaxBackfillDepth: 4}},
		// EASY only keeps a scratch profile when drains are announced.
		{"FCFS/EASY-Backfilling-drains", StartEASY, Config{MachineNodes: nodes,
			Announced: []sim.Failure{{At: 3_000, Nodes: 128, Duration: 600}}}},
	} {
		run := func(f profileFactory) ([]sim.Allocation, []telemetry.Event) {
			alg, err := New(OrderFCFS, c.start, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			alg.setProfileFactory(f)
			rec := &startRecorder{}
			res, err := sim.Run(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg, sim.Options{Recorder: rec})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.MaxQueue < 100_000 {
				t.Fatalf("%s: backlog only reached %d jobs, want >= 100000", c.name, res.MaxQueue)
			}
			return res.Schedule.Allocs, rec.starts
		}
		tree, treeEv := run(nil)
		ref, refEv := run(reference)
		if len(tree) != len(ref) || len(treeEv) != len(refEv) {
			t.Fatalf("%s: tree has %d allocations and %d start events, reference %d and %d",
				c.name, len(tree), len(treeEv), len(ref), len(refEv))
		}
		for i := range tree {
			a, b := tree[i], ref[i]
			if a.Job.ID != b.Job.ID || a.Start != b.Start || a.End != b.End || a.Killed != b.Killed {
				t.Fatalf("%s: allocation %d diverged: tree job %d [%d,%d) vs reference job %d [%d,%d)",
					c.name, i, a.Job.ID, a.Start, a.End, b.Job.ID, b.Start, b.End)
			}
		}
		for i := range treeEv {
			if treeEv[i] != refEv[i] {
				t.Fatalf("%s: start event %d diverged\n%+v\nvs reference\n%+v",
					c.name, i, treeEv[i], refEv[i])
			}
		}
	}
}

// TestBatchedPassStartsManyPerPass is the non-vacuity check: on a
// saturated FCFS/List workload where many queued jobs fit at one drain
// instant, a single batched pass must actually start more than one job
// (otherwise the equivalence tests above would be comparing two
// sequential implementations).
func TestBatchedPassStartsManyPerPass(t *testing.T) {
	const nodes = 8
	// One machine-filling job, then eight 1-node jobs submitted while it
	// runs: when it completes, all eight start in the same pass.
	jobs := []*job.Job{{ID: 0, Submit: 0, Nodes: nodes, Estimate: 100, Runtime: 100}}
	for i := 1; i <= nodes; i++ {
		jobs = append(jobs, &job.Job{ID: job.ID(i), Submit: 1, Nodes: 1, Estimate: 50, Runtime: 50})
	}
	alg, err := New(OrderFCFS, StartList, Config{MachineNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	buf := &telemetry.Buffer{}
	if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true, Recorder: buf}); err != nil {
		t.Fatal(err)
	}
	// Count starts per (pass) by tracking EventPass boundaries.
	maxPerPass, cur := 0, 0
	for _, ev := range buf.Events() {
		switch ev.Type {
		case telemetry.EventPass:
			if cur > maxPerPass {
				maxPerPass = cur
			}
			cur = 0
		case telemetry.EventStart:
			cur++
		}
	}
	if cur > maxPerPass {
		maxPerPass = cur
	}
	if maxPerPass < nodes {
		t.Fatalf("batched pass started at most %d jobs, want %d in one pass", maxPerPass, nodes)
	}
}

// passThrough is a transparent WrapStarter layer: it forwards Name and
// Pick and nothing else, like the production admission wrappers.
type passThrough struct{ Starter }

// TestComposeSelectsPassByType pins the type-driven pass selection: every
// batchGridCases configuration (each grid cell from New, plus the fast,
// depth-bounded and drain-announced variants) gets the batched pass,
// while a WrapStarter-wrapped composite and Switching — whose start
// policies are not IndexedStarters — get one start per Startable call.
// Eight 1-node jobs on eight free nodes all start at once under every
// start policy, so the two paths are told apart by one call.
func TestComposeSelectsPassByType(t *testing.T) {
	const nodes = 16
	firstCall := func(s sim.Scheduler) int {
		for i := 0; i < 8; i++ {
			s.Submit(&job.Job{ID: job.ID(i), Nodes: 1, Estimate: 10, Runtime: 10}, 0)
		}
		return len(s.Startable(0, 8, nil))
	}
	cal, err := NewCalendar(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range batchGridCases(nodes) {
		c, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		if c.ixStart == nil {
			t.Errorf("%s: composed without the batched pass", tc.name)
		}
		if got := firstCall(c); got < 2 {
			t.Errorf("%s: batched pass started %d jobs in one call, want several", tc.name, got)
		}
		for _, w := range []struct {
			name string
			wrap func(Starter) Starter
		}{
			{"pass-through", func(s Starter) Starter { return passThrough{s} }},
			{"reserved", func(s Starter) Starter { return NewReservedStarter(s, cal) }},
		} {
			base, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			wrapped := WrapStarter(base, w.wrap)
			if wrapped.ixStart != nil {
				t.Errorf("%s wrapped %s: composed with the batched pass", tc.name, w.name)
			}
			if got := firstCall(wrapped); got != 1 {
				t.Errorf("%s wrapped %s: started %d jobs in one call, want 1", tc.name, w.name, got)
			}
		}
	}
	sw, err := NewSwitching(objective.PrimeTime, OrderSMARTFFIA, StartEASY, OrderGG, StartList,
		Config{MachineNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if got := firstCall(sw); got != 1 {
		t.Errorf("Switching started %d jobs in one call, want 1", got)
	}
}
