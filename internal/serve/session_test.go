package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

func TestSessionLifecycle(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rs := mustSubmit(t, sess, []JobSpec{
		{Name: "wide", Nodes: 16, Estimate: 100},
		{Name: "narrow", Nodes: 4, Estimate: 50},
	})
	if rs[0].ID != 1 || rs[1].ID != 2 {
		t.Fatalf("ids not dense from 1: %+v", rs)
	}
	// wide occupies the whole machine; narrow waits behind it (FCFS).
	if ji, _ := sess.Job(1); ji.Status != StatusRunning {
		t.Fatalf("job 1 = %v, want running", ji.Status)
	}
	if ji, _ := sess.Job(2); ji.Status != StatusPending {
		t.Fatalf("job 2 = %v, want pending", ji.Status)
	}
	if err := sess.Advance(100); err != nil {
		t.Fatal(err)
	}
	ji, _ := sess.Job(1)
	if ji.Status != StatusDone || ji.End != 100 {
		t.Fatalf("job 1 after advance: %+v", ji)
	}
	if ji, _ := sess.Job(2); ji.Status != StatusRunning || ji.Start != 100 {
		t.Fatalf("job 2 should start the instant 1 completes: %+v", ji)
	}
	if err := sess.Advance(200); err != nil {
		t.Fatal(err)
	}
	agg := sess.Agg()
	if agg.Completed != 2 || agg.SumWait != 100 || agg.SumResponse != 100+150 {
		t.Fatalf("aggregates wrong: %+v", agg)
	}
}

// TestAdvanceIdempotent: re-advancing to the past must be a clean no-op
// (client retries of a committed advance replay harmlessly).
func TestAdvanceIdempotent(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess, []JobSpec{{Nodes: 8, Estimate: 100}})
	if err := sess.Advance(500); err != nil {
		t.Fatal(err)
	}
	fp := sess.Fingerprint()
	if err := sess.Advance(300); err != nil {
		t.Fatalf("advance into the past must no-op, got %v", err)
	}
	if err := sess.Advance(500); err != nil {
		t.Fatal(err)
	}
	if sess.Fingerprint() != fp {
		t.Fatal("idempotent advances changed state")
	}
}

// TestDeadlineSemantics: a job may start at clock == deadline but is
// expired (withdrawn, never started) one instant later.
func TestDeadlineSemantics(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Blocker holds the machine until t=100.
	mustSubmit(t, sess, []JobSpec{{Name: "blocker", Nodes: 8, Estimate: 100}})
	// Deadline exactly at the release instant: starts.
	mustSubmit(t, sess, []JobSpec{{Name: "ontime", Nodes: 8, Estimate: 10, Deadline: 100}})
	if err := sess.Advance(100); err != nil {
		t.Fatal(err)
	}
	if ji, _ := sess.Job(2); ji.Status != StatusRunning || ji.Start != 100 {
		t.Fatalf("deadline==start instant must still start: %+v", ji)
	}

	// This one's deadline passes while it waits: expired, machine stays free.
	mustSubmit(t, sess, []JobSpec{{Name: "late", Nodes: 8, Estimate: 10, Deadline: 105}})
	if err := sess.Advance(200); err != nil {
		t.Fatal(err)
	}
	ji, _ := sess.Job(3)
	if ji.Status != StatusExpired {
		t.Fatalf("job past its deadline = %v, want expired", ji.Status)
	}
	if agg := sess.Agg(); agg.Expired != 1 {
		t.Fatalf("expired count = %d", agg.Expired)
	}

	// Expiry must advance the clock even with no completions pending:
	// a lone deadlined job in an empty machine expires at deadline+1.
	sess2, err := NewSession("m2", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess2, []JobSpec{{Nodes: 8, Estimate: 10, Deadline: 50}})
	if ji, _ := sess2.Job(1); ji.Status != StatusRunning {
		t.Fatalf("empty machine must start the job immediately: %v", ji.Status)
	}

	// Submitted already past its deadline: expired on arrival.
	if err := sess2.Advance(100); err != nil {
		t.Fatal(err)
	}
	rs := mustSubmit(t, sess2, []JobSpec{{Nodes: 1, Estimate: 5, Deadline: 60}})
	if rs[0].Status != StatusExpired {
		t.Fatalf("deadline in the past on submit = %v, want expired", rs[0].Status)
	}
}

// TestBoundedPendingQueueSheds: beyond MaxPending, submissions are
// recorded as shed and never scheduled.
func TestBoundedPendingQueueSheds(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 1, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = JobSpec{Nodes: 1, Estimate: 100}
	}
	rs := mustSubmit(t, sess, specs)
	// The whole batch lands at one instant before any pass runs (engine
	// semantics: arrivals, then passes), so the queue bound admits jobs
	// 1 and 2 and sheds 3–5; job 1 then starts in the pass.
	want := []JobStatus{StatusPending, StatusPending, StatusShed, StatusShed, StatusShed}
	for i, r := range rs {
		if r.Status != want[i] {
			t.Fatalf("job %d = %v, want %v", i+1, r.Status, want[i])
		}
	}
	if ji, _ := sess.Job(1); ji.Status != StatusRunning {
		t.Fatalf("job 1 = %v, want running after the pass", ji.Status)
	}
	if agg := sess.Agg(); agg.Shed != 3 || agg.Submitted != 2 {
		t.Fatalf("aggregates: %+v", agg)
	}
	// Shed jobs stay queryable until evicted.
	if ji, ok := sess.Job(5); !ok || ji.Status != StatusShed {
		t.Fatalf("shed job not queryable: %+v ok=%v", ji, ok)
	}
}

func TestSubmitValidationLeavesStateUntouched(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	fp := sess.Fingerprint()
	_, err = sess.Submit([]JobSpec{
		{Nodes: 2, Estimate: 10},
		{Nodes: 99, Estimate: 10}, // wider than the machine
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if sess.Fingerprint() != fp {
		t.Fatal("rejected batch mutated the session")
	}
	if _, err := sess.Submit(nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("empty submit: %v", err)
	}
}

// TestSessionMatchesEngine: the service's incremental event loop and
// the batch sim engine are two drivers of the same scheduler; fed the
// same workload they must produce identical placements (start and end
// times) and the same wait and response sums.
//
// SMART and PSRS are left out on purpose: the session runs one pass
// after an advance and another after the submit at the same instant,
// where the engine runs a single pass, and their replanning orders are
// sensitive to the extra pass (SMART-FFIA/EASY at 3,000 jobs completes
// only 2,996 jobs by the engine's makespan). The removal-stable orders
// below decide identically either way.
func TestSessionMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		order sched.OrderName
		start sched.StartName
	}{
		{sched.OrderFCFS, sched.StartList},
		{sched.OrderFCFS, sched.StartEASY},
		{sched.OrderFCFS, sched.StartConservative},
		{sched.OrderGG, sched.StartList},
	} {
		name := string(tc.order) + "/" + string(tc.start)
		r := rand.New(rand.NewSource(7))
		const n, nodes = 300, 64
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = &job.Job{
				Nodes:    1 + r.Intn(nodes),
				Submit:   int64(r.Intn(5000)),
				Estimate: int64(60 + r.Intn(2000)),
			}
			jobs[i].Runtime = jobs[i].Estimate / 2
		}
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].Submit < jobs[k].Submit })
		// IDs follow submission order, which is exactly how the session
		// numbers them.
		for i := range jobs {
			jobs[i].ID = job.ID(i + 1)
		}

		ref, err := sched.New(tc.order, tc.start, sched.Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, jobs, ref, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[job.ID]sim.Allocation, n)
		var wantWait, wantResponse int64
		for _, a := range res.Schedule.Allocs {
			want[a.Job.ID] = a
			wantWait = job.AddSat(wantWait, a.Start-a.Job.Submit)
			wantResponse = job.AddSat(wantResponse, a.End-a.Job.Submit)
		}

		sess, err := NewSession("m1", Config{Nodes: nodes, Order: string(tc.order), Start: string(tc.start)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(jobs); {
			k := i
			for k < len(jobs) && jobs[k].Submit == jobs[i].Submit {
				k++
			}
			if err := sess.Advance(jobs[i].Submit); err != nil {
				t.Fatal(err)
			}
			specs := make([]JobSpec, 0, k-i)
			for _, j := range jobs[i:k] {
				specs = append(specs, JobSpec{Nodes: j.Nodes, Estimate: j.Estimate, Runtime: j.Runtime})
			}
			rs := mustSubmit(t, sess, specs)
			for bi, j := range jobs[i:k] {
				if job.ID(rs[bi].ID) != j.ID {
					t.Fatalf("%s: session assigned id %d where engine job %d expected", name, rs[bi].ID, j.ID)
				}
			}
			i = k
		}
		if err := sess.Advance(res.Schedule.Makespan() + 1); err != nil {
			t.Fatal(err)
		}
		agg := sess.Agg()
		if agg.Completed != n {
			t.Fatalf("%s: %d jobs completed, want %d", name, agg.Completed, n)
		}
		for id, a := range want {
			ji, ok := sess.Job(int64(id))
			if !ok {
				t.Fatalf("%s: job %d missing from session", name, id)
			}
			if ji.Start != a.Start || ji.End != a.End {
				t.Fatalf("%s: job %d ran [%d,%d] in the session, [%d,%d] under the engine", name, id, ji.Start, ji.End, a.Start, a.End)
			}
		}
		if agg.SumWait != wantWait || agg.SumResponse != wantResponse {
			t.Fatalf("%s: session sums wait=%d response=%d, engine wait=%d response=%d", name, agg.SumWait, agg.SumResponse, wantWait, wantResponse)
		}
	}
}

// TestSessionInterruptPoisons: an interrupt raised mid-operation
// surfaces ErrInterrupted (the store reloads the session from disk).
func TestSessionInterruptPoisons(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess, []JobSpec{{Nodes: 8, Estimate: 100}, {Nodes: 8, Estimate: 100}})
	sess.SetInterrupt(func() bool { return true })
	if err := sess.Advance(1000); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

// TestSessionGoldenFingerprints pins a fixed, seeded operation sequence
// to fingerprints recorded before the session shared the simulator's
// machine state. The sequence mixes same-instant completions (estimates
// and runtimes on a coarse grid), deadlines that expire, sheds past
// MaxPending and evictions past DoneHistory; a change to the completion
// tie-break reorders the retire ring and so changes the fingerprint.
func TestSessionGoldenFingerprints(t *testing.T) {
	for _, tc := range []struct {
		order sched.OrderName
		start sched.StartName
		want  string
	}{
		{sched.OrderFCFS, sched.StartEASY, "a206b1fc5d86ca53"},
		{sched.OrderGG, sched.StartList, "23648ac1a400dad8"},
	} {
		sess, err := NewSession("golden", Config{Nodes: 16, Order: string(tc.order),
			Start: string(tc.start), MaxPending: 12, DoneHistory: 40})
		if err != nil {
			t.Fatal(err)
		}
		var audit telemetry.Buffer
		sess.SetAudit(&audit)
		r := rand.New(rand.NewSource(11))
		clock := int64(0)
		for op := 0; op < 400; op++ {
			if r.Intn(3) == 0 {
				clock += int64(25 * r.Intn(8))
				if err := sess.Advance(clock); err != nil {
					t.Fatal(err)
				}
				continue
			}
			specs := make([]JobSpec, 1+r.Intn(3))
			for i := range specs {
				specs[i] = JobSpec{Nodes: 1 + r.Intn(8), Estimate: int64(50 * (1 + r.Intn(4)))}
				if r.Intn(2) == 0 {
					specs[i].Runtime = specs[i].Estimate / 2
				}
				if r.Intn(4) == 0 {
					specs[i].Deadline = clock + int64(25*r.Intn(6))
				}
			}
			mustSubmit(t, sess, specs)
		}

		// The sequence must actually reach every path it pins.
		agg := sess.Agg()
		if agg.Shed == 0 || agg.Expired == 0 {
			t.Fatalf("%s/%s: sequence sheds %d and expires %d jobs, want both > 0", tc.order, tc.start, agg.Shed, agg.Expired)
		}
		if _, ok := sess.Job(1); ok {
			t.Fatalf("%s/%s: job 1 still queryable, want it evicted past DoneHistory", tc.order, tc.start)
		}
		ties, lastFinish := 0, int64(-1)
		for _, ev := range audit.Events() {
			if ev.Type != telemetry.EventFinish {
				continue
			}
			if ev.At == lastFinish {
				ties++
			}
			lastFinish = ev.At
		}
		if ties < 10 {
			t.Fatalf("%s/%s: only %d same-instant completions, want >= 10", tc.order, tc.start, ties)
		}

		if got := fmt.Sprintf("%016x", sess.Fingerprint()); got != tc.want {
			t.Errorf("%s/%s: fingerprint %s, want %s", tc.order, tc.start, got, tc.want)
		}
	}
}
