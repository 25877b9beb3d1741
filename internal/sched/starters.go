package sched

import (
	"sort"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Instrumented is implemented by start policies that accept telemetry
// hooks: a trace recorder for backfill-attempt events and an
// availability-profile operation counter for their scratch profiles.
// sched.New attaches Config.Hooks to every instrumented starter.
type Instrumented interface {
	Instrument(h telemetry.Hooks)
}

// FailureAware is implemented by start policies that can plan around
// announced capacity drains (maintenance windows): the windows become
// capacity steps in the reservation profile, so the policy reserves
// around them instead of starting jobs the drain would abort. Surprise
// failures are, by definition, not announced — only scheduled
// maintenance is legitimate scheduler knowledge.
type FailureAware interface {
	// Announce hands the policy the maintenance windows, as sim.Failure
	// values (the same shape faults.Plan.Announced produces). The slice
	// must not be mutated afterwards.
	Announce(windows []sim.Failure)
}

// reserveDrains carves announced maintenance windows out of a reservation
// profile via clamped reservation: a drain takes its nodes regardless of
// how much the profile thinks is free (overlap with running jobs shows up
// as aborts at run time, not as a profile invariant violation). Windows
// are clipped to [now, horizon).
func reserveDrains(p profile.Kernel, announced []sim.Failure, now, horizon int64) {
	for _, f := range announced {
		end := job.AddSat(f.At, f.Duration)
		if end <= now || f.At >= horizon {
			continue
		}
		start := f.At
		if start < now {
			start = now
		}
		if end > horizon {
			end = horizon
		}
		if end > start {
			p.ReserveClamped(f.Nodes, start, end)
		}
	}
}

// drainsPending reports whether any announced window still extends past
// `now` (only those can influence scheduling decisions).
func drainsPending(announced []sim.Failure, now int64) bool {
	for _, f := range announced {
		if job.AddSat(f.At, f.Duration) > now {
			return true
		}
	}
	return false
}

// decided stashes the classifications of the current pass's successful
// picks so the engine (through Composite's sim.DecisionExplainer) can
// merge each one into its job's start event. A batched pass starts many
// jobs before the engine asks for any decision, so the stash holds the
// whole pass; every Pick/PickManyIndexed entry point resets it. Like the
// starters themselves, it is owned by one simulation goroutine.
type decided struct {
	jobs []*job.Job
	decs []telemetry.Decision
}

func (d *decided) reset() {
	d.jobs, d.decs = d.jobs[:0], d.decs[:0]
}

func (d *decided) stash(j *job.Job, dec telemetry.Decision) {
	d.jobs = append(d.jobs, j)
	d.decs = append(d.decs, dec)
}

// LastStartDecision implements sim.DecisionExplainer for the embedding
// starter. Newest entry wins (a pass never picks the same job twice, but
// the scan order keeps the semantics of the old single-slot stash).
func (d *decided) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	if j == nil {
		return telemetry.Decision{}, false
	}
	for i := len(d.jobs) - 1; i >= 0; i-- {
		if d.jobs[i] == j {
			return d.decs[i], true
		}
	}
	return telemetry.Decision{}, false
}

// ensureScratch reuses (after Reset) or creates a starter's scratch
// profile with the configured backend, attaching the op counters.
func ensureScratch(scratch profile.Kernel, f profileFactory, stats *profile.Stats, nodes int, now int64) profile.Kernel {
	if scratch == nil {
		scratch = makeScratch(f, nodes, now)
		scratch.SetStats(stats)
		return scratch
	}
	scratch.Reset(nodes, now)
	return scratch
}

// ListStarter implements the greedy list schedule of Section 5.1: the
// next job in the list is started as soon as the necessary resources are
// available; the head is never skipped.
type ListStarter struct {
	decided
	picked    []*job.Job
	interrupt func() bool
}

// NewListStarter returns the strict list start policy.
func NewListStarter() *ListStarter { return &ListStarter{} }

// Name implements Starter.
func (*ListStarter) Name() string { return string(StartList) }

// SetInterrupt implements Interruptible.
func (s *ListStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// Pick implements Starter.
func (s *ListStarter) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	if len(ordered) == 0 || ordered[0].Nodes > free {
		return nil
	}
	s.stash(ordered[0], telemetry.Decision{
		Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
	})
	return ordered[0]
}

// GareyGrahamStarter implements the classical list scheduling of Garey
// and Graham [6] (Section 5.3): always start the next job for which
// enough resources are available, scanning the whole queue. It needs no
// execution-time knowledge; backfilling is of no benefit because it
// already starts anything that fits.
type GareyGrahamStarter struct {
	decided
	picked    []*job.Job
	interrupt func() bool
}

// NewGareyGrahamStarter returns the free-for-all start policy.
func NewGareyGrahamStarter() *GareyGrahamStarter { return &GareyGrahamStarter{} }

// Name implements Starter.
func (*GareyGrahamStarter) Name() string { return string(StartList) }

// SetInterrupt implements Interruptible.
func (s *GareyGrahamStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// Pick implements Starter.
func (s *GareyGrahamStarter) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	for i, j := range ordered {
		if j.Nodes <= free {
			d := telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonScanFit,
				Depth: i, Head: telemetry.None,
			}
			if i > 0 {
				d.Head = int64(ordered[0].ID)
			}
			s.stash(j, d)
			return j
		}
	}
	return nil
}

// EASYStarter implements Lifka's aggressive backfilling [10] as described
// by Feitelson and Weil [4] (Section 5.2): only the queue head holds a
// reservation. A lower-priority job may start now if it fits into the
// free nodes and either terminates (by its estimate) before the head's
// shadow time or only uses nodes the head will not need then. EASY "will
// not postpone the projected execution of the next job in the list" but
// may delay jobs further down — and, because projections use estimates,
// may even delay the head when a running job finishes early.
type EASYStarter struct {
	decided
	// ends is the reusable shadow-time sort buffer (Pick is called once
	// per scheduling decision; allocating a running-list copy each time
	// is measurable under deep backlogs). Not safe for concurrent use.
	ends []sim.Running
	// rec receives backfill-attempt events (nil = tracing disabled);
	// stats counts the drain profile's kernel operations.
	rec   telemetry.Recorder
	stats *profile.Stats
	// announced holds the maintenance windows (FailureAware); when any
	// window is still pending, Pick switches from the sorted-completions
	// shadow computation to a profile-based one that carves the drains
	// out of future capacity.
	announced []sim.Failure
	// scratch is the reusable drain-aware availability profile (only
	// allocated when windows are announced); factory selects its backend.
	scratch profile.Kernel
	factory profileFactory
	// picked/runBuf are PickManyIndexed's reusable pass buffers.
	picked []*job.Job
	runBuf []sim.Running
	// interrupt is the cooperative cancellation hook (Interruptible).
	interrupt func() bool
}

// NewEASYStarter returns the EASY backfilling start policy.
func NewEASYStarter() *EASYStarter { return &EASYStarter{} }

// Name implements Starter.
func (*EASYStarter) Name() string { return string(StartEASY) }

// SetInterrupt implements Interruptible.
func (s *EASYStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// Instrument implements Instrumented.
func (s *EASYStarter) Instrument(h telemetry.Hooks) {
	s.rec = h.Recorder
	s.stats = h.ProfileStats
	if s.scratch != nil {
		s.scratch.SetStats(s.stats)
	}
}

// Announce implements FailureAware.
func (s *EASYStarter) Announce(windows []sim.Failure) { s.announced = windows }

// setProfileFactory implements profileBacked.
func (s *EASYStarter) setProfileFactory(f profileFactory) { s.factory, s.scratch = f, nil }

// Pick implements Starter.
func (s *EASYStarter) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	if len(ordered) == 0 {
		return nil
	}
	if drainsPending(s.announced, now) {
		s.buildDrainProfile(now, running, machineNodes)
		return s.drainPickOne(ordered, now, free)
	}
	return s.pickOne(ordered, now, free, running)
}

// pickOne is the fault-free EASY decision against an explicit running
// list (Pick's body).
func (s *EASYStarter) pickOne(ordered []*job.Job, now int64, free int, running []sim.Running) *job.Job {
	head := ordered[0]
	if head.Nodes <= free {
		s.stash(head, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		return head
	}
	if len(ordered) == 1 {
		return nil
	}
	s.ends = append(s.ends[:0], running...)
	shadow, spare := shadowTime(head, now, free, s.ends)
	if s.rec != nil {
		s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
			Job: telemetry.None, Starter: s.Name(), Head: int64(head.ID),
			Shadow: shadow, Spare: spare})
	}
	for i, j := range ordered[1:] {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if j.Nodes > free {
			continue
		}
		// Saturating: a client-supplied estimate near MaxInt64 must not
		// wrap negative and backfill a job that runs past the shadow.
		if job.AddSat(now, j.Estimate) <= shadow {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillBeforeShadow,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
		if j.Nodes <= spare {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillSpareNodes,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
	}
	return nil
}

// buildDrainProfile rebuilds the scratch profile for EASY's failure-aware
// variant: future capacity with the running jobs reserved and the
// announced drains carved out.
func (s *EASYStarter) buildDrainProfile(now int64, running []sim.Running, machineNodes int) {
	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			// A job running past its estimate would have been killed; be
			// defensive against malformed Running data.
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	reserveDrains(p, s.announced, now, profile.Infinity)
}

// drainPickOne is EASY's failure-aware decision, used while announced
// maintenance windows are pending: future capacity is modeled by the
// drain-aware scratch profile, the shadow time is the profile's earliest
// fit for the head (which therefore lands *after* any drain the head
// cannot straddle), and a job only starts now if the profile admits its
// whole estimated run from now — so nobody is started straight into a
// known drain.
func (s *EASYStarter) drainPickOne(ordered []*job.Job, now int64, free int) *job.Job {
	p := s.scratch
	// fit: physically startable now (free nodes respect active outages)
	// and the profile admits the whole estimated run starting now.
	fit := func(j *job.Job) bool {
		return j.Nodes <= free && p.EarliestFit(j.Nodes, j.Estimate, now) == now
	}
	head := ordered[0]
	if fit(head) {
		s.stash(head, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		return head
	}
	if len(ordered) == 1 {
		return nil
	}
	shadow := p.EarliestFit(head.Nodes, head.Estimate, now)
	spare := 0
	if shadow < profile.Infinity {
		if sp := p.FreeAt(shadow) - head.Nodes; sp > 0 {
			spare = sp
		}
	}
	if s.rec != nil {
		s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
			Job: telemetry.None, Starter: s.Name(), Head: int64(head.ID),
			Shadow: shadow, Spare: spare})
	}
	for i, j := range ordered[1:] {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if !fit(j) {
			continue
		}
		if job.AddSat(now, j.Estimate) <= shadow {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillBeforeShadow,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
		if j.Nodes <= spare {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillSpareNodes,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
	}
	return nil
}

// shadowTime computes the head job's reservation: the earliest estimated
// time at which enough nodes drain for the head, and the spare nodes left
// over at that time after the head starts. ends is sorted in place (the
// caller passes an owned copy of the running list).
func shadowTime(head *job.Job, now int64, free int, ends []sim.Running) (shadow int64, spare int) {
	sort.Slice(ends, func(a, b int) bool {
		if ends[a].EstEnd != ends[b].EstEnd {
			return ends[a].EstEnd < ends[b].EstEnd
		}
		return ends[a].Job.ID < ends[b].Job.ID
	})
	avail := free
	for _, r := range ends {
		avail += r.Job.Nodes
		if avail >= head.Nodes {
			return maxInt64(r.EstEnd, now), avail - head.Nodes
		}
	}
	// The head fits on the drained machine only if it fits at all; the
	// simulator validates widths, so this is unreachable for valid jobs
	// unless the queue head is wider than the machine.
	return profile.Infinity, 0
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ConservativeStarter implements conservative backfilling (Section 5.2):
// every queued job holds a reservation; backfilling "will not increase
// the projected completion time of a job submitted before the job used
// for backfilling". Because the order policies of this package may
// reorder the queue (SMART/PSRS), the reservation profile is rebuilt from
// the current priority order at every scheduling pass (compression); a
// job starts if and only if its reserved start is now.
type ConservativeStarter struct {
	decided
	// maxDepth bounds how many queued jobs are walked per pass
	// (0 = unlimited, the paper's semantics).
	maxDepth int
	// rec receives backfill-attempt events; stats counts the scratch
	// profile's kernel operations (both nil = telemetry disabled).
	rec   telemetry.Recorder
	stats *profile.Stats
	// fast enables the horizon acceleration: reservations starting at or
	// beyond now + max(queue estimates) are skipped and reservation ends
	// are clipped to that horizon. Start-now decisions agree with the
	// exact walk except when an intermediate job's fit window crosses the
	// horizon (rare; the ablation bench quantifies the quality effect);
	// it turns the O(queue²) pass into a near-linear one and makes
	// paper-scale saturated runs tractable.
	fast bool
	// scratch is the reusable reservation profile. Pick rebuilds the full
	// reservation state on every pass (compression); recycling the step
	// storage via Reset removes the per-pass allocation storm. A Starter
	// is owned by one simulation goroutine, so this is not a race.
	// factory selects the backend (default: the O(log S) tree kernel).
	scratch profile.Kernel
	factory profileFactory
	// announced holds maintenance windows (FailureAware): each pass carves
	// them out of the scratch profile, so reservations — and therefore
	// start-now decisions — route around known drains.
	announced []sim.Failure
	// picked/runBuf are PickManyIndexed's reusable pass buffers.
	picked []*job.Job
	runBuf []sim.Running
	// interrupt is the cooperative cancellation hook (Interruptible).
	interrupt func() bool
}

// NewConservativeStarter returns the exact conservative backfilling
// start policy. maxDepth > 0 bounds the reservation walk
// (ablation/production tractability); 0 keeps the full semantics.
func NewConservativeStarter(maxDepth int) *ConservativeStarter {
	return &ConservativeStarter{maxDepth: maxDepth}
}

// NewFastConservativeStarter returns the horizon-accelerated variant
// (see the fast field): same policy, near-linear scheduling passes,
// negligibly different decisions in horizon-crossing corner cases.
func NewFastConservativeStarter(maxDepth int) *ConservativeStarter {
	return &ConservativeStarter{maxDepth: maxDepth, fast: true}
}

// Name implements Starter.
func (*ConservativeStarter) Name() string { return string(StartConservative) }

// SetInterrupt implements Interruptible.
func (s *ConservativeStarter) SetInterrupt(f func() bool) { s.interrupt = f }

// Announce implements FailureAware.
func (s *ConservativeStarter) Announce(windows []sim.Failure) { s.announced = windows }

// Instrument implements Instrumented.
func (s *ConservativeStarter) Instrument(h telemetry.Hooks) {
	s.rec = h.Recorder
	s.stats = h.ProfileStats
	if s.scratch != nil {
		s.scratch.SetStats(s.stats)
	}
}

// setProfileFactory implements profileBacked.
func (s *ConservativeStarter) setProfileFactory(f profileFactory) { s.factory, s.scratch = f, nil }

// Pick implements Starter.
func (s *ConservativeStarter) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	return s.pickOne(ordered, now, free, running, machineNodes)
}

// pickOne is the full sequential decision (Pick's historical body): build
// the reservation profile from scratch, walk the queue, start the first
// job whose reservation is due now.
func (s *ConservativeStarter) pickOne(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	if len(ordered) == 0 || free <= 0 {
		return nil
	}
	// Fast path: nothing in the queue fits the free nodes, so no
	// reservation can be "now".
	fits := false
	for i, j := range ordered {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if j.Nodes <= free {
			fits = true
			break
		}
	}
	if !fits {
		return nil
	}
	depth := len(ordered)
	if s.maxDepth > 0 && depth > s.maxDepth {
		depth = s.maxDepth
	}

	// Horizon acceleration (fast mode): only reservations intersecting
	// [now, now + max queue estimate) can influence a start-now decision,
	// so far-future reservations are skipped and ends clipped. The
	// intermediate placements feeding the walk may shift in corner cases
	// (a fit window crossing the horizon), which is the documented
	// approximation of fast mode.
	horizon := profile.Infinity
	if s.fast {
		var maxEst int64
		for _, j := range ordered[:depth] {
			if j.Estimate > maxEst {
				maxEst = j.Estimate
			}
		}
		// Saturating add: a huge estimate near Infinity degrades to the
		// exact (unaccelerated) walk instead of wrapping negative.
		horizon = job.AddSat(now, maxEst)
	}

	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			// A job running past its estimate would have been killed; be
			// defensive against malformed Running data.
			end = now + 1
		}
		if end > horizon {
			end = horizon
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	// Announced drains come after the running reservations: ReserveClamped
	// saturates at zero where a drain overlaps capacity the running set
	// already holds (those jobs will be aborted by the engine; the profile
	// must simply not promise that capacity to anyone else).
	reserveDrains(p, s.announced, now, horizon)
	for i, j := range ordered[:depth] {
		if stopAt(s.interrupt, i) {
			return nil
		}
		t := p.EarliestFit(j.Nodes, j.Estimate, now)
		if t == now {
			// The profile assumes the machine's nominal size; an injected
			// hardware outage can shrink the real free count below it, so
			// re-check physical availability before starting.
			if j.Nodes <= free {
				d := telemetry.Decision{
					Starter: s.Name(), Reason: telemetry.ReasonReservationDueNow,
					Depth: i, Head: telemetry.None,
				}
				if i > 0 {
					d.Head = int64(ordered[0].ID)
				}
				s.stash(j, d)
				return j
			}
			// Cannot physically start: reserve at now so later queue jobs
			// still respect this job's priority claim.
		}
		if i == 0 && s.rec != nil && len(ordered) > 1 {
			// The head did not start now: everything deeper in this walk
			// is a backfill attempt against the head's reservation.
			s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
				Job: telemetry.None, Starter: s.Name(), Head: int64(j.ID)})
		}
		if t >= horizon {
			continue // cannot influence any start-now decision
		}
		end := job.AddSat(t, j.Estimate)
		if end > horizon {
			end = horizon
		}
		if end > t {
			p.Reserve(j.Nodes, t, end)
		}
	}
	return nil
}
