package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"jobsched/internal/eval"
	"jobsched/internal/sched"
	"jobsched/internal/serve"
	"jobsched/internal/sim"
	"jobsched/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 0.50, 50, true},
		{100, 0.99, 99, false}, // one sample beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // nine beyond
		{11, 0.01, 1, true},
		{1, 0.5, 1, false},
	} {
		got, ok := nearestRank(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("nearestRank(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := nearestRank(nil, 0.5); ok {
		t.Error("empty sample reported a valid percentile")
	}
}

func TestDistTailFallback(t *testing.T) {
	d := dist{xs: seq(100)}
	// p99 of 100 samples has one beyond: fall back to rank 90, the
	// highest with ten above it.
	if v, ok := d.q(0.99); v != 90 || ok {
		t.Errorf("q(0.99) of 1..100 = %g, %v; want 90, false", v, ok)
	}
	if v, ok := d.q(0.5); v != 50 || !ok {
		t.Errorf("q(0.5) of 1..100 = %g, %v; want 50, true", v, ok)
	}
	small := dist{xs: []float64{3, 1, 2}}
	if v, ok := small.q(0.99); v != 3 || ok {
		t.Errorf("q(0.99) of 3 samples = %g, %v; want the max, false", v, ok)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, layer: "root", start: 0, end: 100 * ms},
		// Overlapping children count once; the last one is clipped to
		// the parent's end.
		{id: 2, parent: 1, layer: "a", start: 10 * ms, end: 30 * ms},
		{id: 3, parent: 1, layer: "a", start: 20 * ms, end: 50 * ms},
		{id: 4, parent: 1, layer: "b", start: 90 * ms, end: 120 * ms},
		// A grandchild reduces its parent only.
		{id: 5, parent: 2, layer: "c", start: 12 * ms, end: 18 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * ms, 2: 14 * ms, 3: 30 * ms, 4: 30 * ms, 5: 6 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := covered(spans[1:4], 0, 100*ms); got != 50*ms {
		t.Errorf("covered = %v, want 50ms", got)
	}
}

func TestTally(t *testing.T) {
	var ty tally
	ty.ok(10)
	ty.fail(2, "HTTP 503")
	ty.check(true, "")
	ty.check(false, "fingerprint differs")
	if ty.attempted != 14 || ty.failed != 3 {
		t.Fatalf("tally = %d/%d, want 3 failed of 14", ty.failed, ty.attempted)
	}
	if got := ty.failedShare(); math.Abs(got-3.0/14) > 1e-15 {
		t.Errorf("failedShare = %g, want 3/14", got)
	}
	if ty.firstFailure != "HTTP 503" || ty.badCheck != "fingerprint differs" {
		t.Errorf("firstFailure %q, badCheck %q", ty.firstFailure, ty.badCheck)
	}
	var empty tally
	if empty.failedShare() != 0 {
		t.Error("empty tally has a nonzero failed share")
	}
}

func TestCountSubmit(t *testing.T) {
	var ty tally
	countSubmit(&ty, []serve.SubmitResult{
		{ID: 1, Status: serve.StatusPending}, {ID: 2, Status: serve.StatusRunning},
		{ID: 3, Status: serve.StatusShed}, {ID: 4, Status: serve.StatusExpired},
	}, 4)
	if ty.attempted != 4 || ty.failed != 2 {
		t.Errorf("shed and expired jobs inside a 200: %d failed of %d, want 2 of 4", ty.failed, ty.attempted)
	}
	var short tally
	countSubmit(&short, []serve.SubmitResult{{ID: 1, Status: serve.StatusPending}}, 3)
	if short.attempted != 3 || short.failed != 3 {
		t.Errorf("short answer: %d failed of %d, want 3 of 3", short.failed, short.attempted)
	}
}

// gridFromRows rebuilds a grid from committed rows, as eval.Run would
// have produced it.
func gridFromRows(t *testing.T, c eval.Case, rows []tableRow) *eval.Grid {
	t.Helper()
	g := &eval.Grid{Case: c}
	for _, r := range rows {
		v, err := strconv.ParseFloat(r.value, 64)
		if err != nil {
			t.Fatal(err)
		}
		g.Cells = append(g.Cells, eval.Cell{Order: sched.OrderName(r.order), Start: sched.StartName(r.start),
			Value: v, MaxQueue: int(r.maxQueue), Makespan: r.makespan})
	}
	return g
}

func TestTable3CheckRejectsAlteredCell(t *testing.T) {
	for _, c := range paperCases {
		rows, err := readTable3("..", c)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(gridCells()) {
			t.Fatalf("%s: %d committed rows, grid has %d cells", c, len(rows), len(gridCells()))
		}
		g := gridFromRows(t, c, rows)
		if why := gridMismatch(g, rows); why != "" {
			t.Fatalf("%s: committed table does not match itself: %s", c, why)
		}
		g.Cells[4].Value = math.Nextafter(g.Cells[4].Value, math.Inf(1))
		if gridMismatch(g, rows) == "" {
			t.Errorf("%s: a value one ulp off passed", c)
		}
		g = gridFromRows(t, c, rows)
		g.Cells[7].Makespan++
		if gridMismatch(g, rows) == "" {
			t.Errorf("%s: an altered makespan passed", c)
		}
		g = gridFromRows(t, c, rows)
		g.Cells[2].MaxQueue--
		if gridMismatch(g, rows) == "" {
			t.Errorf("%s: an altered max queue passed", c)
		}
	}
}

func TestLowerBoundCheckRejectsCellBelowBound(t *testing.T) {
	g := &eval.Grid{Case: eval.Unweighted, LowerBound: 100,
		Cells: []eval.Cell{{Order: sched.OrderFCFS, Start: sched.StartList, Value: 100}, {Order: sched.OrderPSRS, Start: sched.StartList, Value: 150}}}
	if why := belowBound(g); why != "" {
		t.Fatalf("valid grid rejected: %s", why)
	}
	g.Cells[1].Value = 99.5
	if belowBound(g) == "" {
		t.Error("a cell below the lower bound passed")
	}
	g.Cells[1].Value = math.NaN()
	if belowBound(g) == "" {
		t.Error("a NaN cell passed")
	}
}

// smallStream simulates a short calibrated stream and returns its
// allocations in the order the engine emits them.
func smallStream(t *testing.T) ([]sim.Allocation, workload.RandomizedConfig) {
	t.Helper()
	rc := workload.CalibratedStreamConfig(2000, paperNodes, streamLoad, 7)
	st, err := workload.NewStreamer(rc)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := sched.New(sched.OrderFCFS, sched.StartEASY, sched.Config{MachineNodes: paperNodes})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	if _, err := sim.RunStream(sim.Machine{Nodes: paperNodes}, st, alg, sim.Options{Sink: &rec}); err != nil {
		t.Fatal(err)
	}
	return rec.allocs, rc
}

type recorder struct{ allocs []sim.Allocation }

func (r *recorder) Emit(a sim.Allocation) error {
	a.Job = a.Job.Clone()
	r.allocs = append(r.allocs, a)
	return nil
}

// validate feeds allocations to a validating sink; the streamer's IDs
// start at 0, so they are shifted to the SWF numbering the sink expects.
func validate(allocs []sim.Allocation, rc workload.RandomizedConfig) string {
	v := newValidatingSink(paperNodes, rc.MaxLimit, len(allocs))
	for _, a := range allocs {
		a.Job = a.Job.Clone()
		a.Job.ID++
		if err := v.Emit(a); err != nil {
			return err.Error()
		}
	}
	return v.finish()
}

func TestValidatingSinkRejectsAlteredAllocation(t *testing.T) {
	allocs, rc := smallStream(t)
	if why := validate(allocs, rc); why != "" {
		t.Fatalf("valid schedule rejected: %s", why)
	}
	alter := map[string]func(a []sim.Allocation){
		"start before submit": func(a []sim.Allocation) { a[10].Start = a[10].Job.Submit - 1 },
		"wrong duration":      func(a []sim.Allocation) { a[10].End++ },
		"duplicate job":       func(a []sim.Allocation) { a[11].Job = a[10].Job },
		"missing job":         func(a []sim.Allocation) { a[len(a)-1].Job = a[0].Job },
		"over capacity": func(a []sim.Allocation) {
			// Widen a job that overlaps another one to the whole machine.
			for i := range a {
				for k := range a {
					if k != i && a[k].Start < a[i].End && a[i].Start < a[k].End {
						a[i].Job.Nodes = paperNodes
						return
					}
				}
			}
			panic("no two jobs overlap")
		},
	}
	for name, f := range alter {
		bad := make([]sim.Allocation, len(allocs))
		for i, a := range allocs {
			a.Job = a.Job.Clone()
			bad[i] = a
		}
		f(bad)
		if validate(bad, rc) == "" {
			t.Errorf("%s passed the validating sink", name)
		}
	}
}

func TestReplayFingerprintRejectsAlteredOp(t *testing.T) {
	ops := []walOp{
		{at: 0},
		{specs: []serve.JobSpec{{Nodes: 8, Estimate: 600, Runtime: 300}, {Nodes: 256, Estimate: 900}}},
		{at: 700},
		{specs: []serve.JobSpec{{Nodes: 4, Estimate: 60}}},
	}
	fp, _, err := replayFingerprint("s0", ops)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := replayFingerprint("s0", ops)
	if err != nil || again != fp {
		t.Fatalf("replay is not deterministic: %s vs %s (%v)", fp, again, err)
	}
	altered := append([]walOp(nil), ops...)
	altered[3] = walOp{specs: []serve.JobSpec{{Nodes: 4, Estimate: 61}}}
	if other, _, err := replayFingerprint("s0", altered); err != nil || other == fp {
		t.Errorf("an altered estimate kept the fingerprint %s (%v)", fp, err)
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadOrder)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
