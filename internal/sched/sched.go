// Package sched implements the scheduling algorithms of the paper's
// Section 5 as compositions of an order policy and a start policy.
//
// The paper evaluates a grid: {FCFS, PSRS, SMART-FFIA, SMART-NFIW,
// Garey&Graham} × {plain list scheduling, conservative backfilling, EASY
// backfilling}. The order policy maintains the waiting queue in start
// priority order (SMART and PSRS are off-line algorithms adapted on-line:
// they only *reorder* the queue and are recomputed lazily); the start
// policy decides which waiting job, if any, starts at the current instant.
package sched

import (
	"fmt"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Orderer maintains the waiting queue in start-priority order.
type Orderer interface {
	// Name identifies the order policy.
	Name() string
	// Push adds a newly submitted job.
	Push(j *job.Job, now int64)
	// Remove takes a started job out of the queue.
	Remove(j *job.Job, now int64)
	// Ordered returns the waiting jobs in priority order. The slice is
	// owned by the caller of a single Startable round and must not be
	// retained.
	Ordered(now int64) []*job.Job
	// Len returns the number of waiting jobs.
	Len() int
}

// Starter decides which job to start next, given the priority order.
// It returns at most one job per call; the engine calls again with updated
// state until nil is returned, which keeps reservation-based policies
// trivially consistent.
type Starter interface {
	// Name identifies the start policy.
	Name() string
	// Pick returns the next job to start now, or nil. machineNodes is the
	// total machine size; free the currently unassigned nodes; running the
	// executing jobs with their *estimated* completions.
	Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job
}

// StableOrderer marks order policies whose Ordered sequence is invariant
// under Remove: taking a started job out never reorders the remaining
// jobs (FCFS, Garey&Graham). SMART and PSRS are not stable — removals
// advance their replan trigger, which can rebuild the plan mid-pass —
// but they are epoch-stable (EpochOrderer), which admits bounded batches.
type StableOrderer interface {
	// StableUnderRemoval is a marker; implementations do nothing.
	StableUnderRemoval()
}

// EpochOrderer is implemented by order policies whose order is
// removal-stable *within a plan epoch*: removals never reorder the
// remaining jobs, but a replan — triggered by the removal counters —
// rebuilds the whole order (SMART, PSRS). BatchWindow returns how many
// consecutive picks of the current order are provably replan-free, so a
// batched pass truncated to the window is exactly equivalent to the
// sequential pick-one protocol: the engine's follow-up Startable call
// re-enters the order policy at the same queue state at which the
// sequential run would have re-checked the replan trigger.
type EpochOrderer interface {
	Orderer
	// BatchWindow returns the maximal safe batch size for the current
	// epoch (≥ 1 when the queue is nonempty). Call after Ordered or
	// OrderedIter — i.e. against a fresh plan.
	BatchWindow() int
}

// IndexedOrderer is implemented by order policies that maintain their
// priority order as a queue.Index alongside the Ordered slice, so a
// batched pass iterates it in O(log Q) cursor steps and width-pruned
// scans instead of walking a materialized order.
type IndexedOrderer interface {
	Orderer
	// OrderedIter returns the indexed view of the current priority order
	// (replanning first, exactly where Ordered would). The index is owned
	// by the order policy; callers must restore any pass-local hiding
	// before returning control.
	OrderedIter(now int64) *queue.Index
}

// IndexedStarter is implemented by start policies that can compute a
// whole scheduling pass at once against an indexed queue view:
// PickManyIndexed returns, in start order, exactly the jobs the
// Pick-until-nil loop would have started at `now` — same jobs, same
// order, same decisions — while sharing the per-pass state (the
// reservation profile rebuild, the shadow computation) across the batch.
// The equivalence assumes the remaining queue keeps its relative order
// as started jobs leave it, which is why Compose batches only over
// StableOrderer and EpochOrderer orders.
type IndexedStarter interface {
	Starter
	// PickManyIndexed returns the jobs startable now, in the order Pick
	// would have returned them, bounded by limit when limit > 0 (the
	// epoch batch window; 0 = unlimited). Implementations must leave the
	// index exactly as found (hidden entries restored). The returned
	// slice is only valid until the next Pick/PickManyIndexed call.
	PickManyIndexed(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job
}

// profileFactory constructs a scratch availability profile. The default
// (nil) builds the O(log S) tree kernel, the only production backend;
// the package's tests inject profile.New (the array kernel) or
// profile.NewReference (the brute-force oracle) to pin that whole
// schedules are backend-independent.
type profileFactory func(nodes int, from int64) profile.Kernel

// makeScratch applies the factory default.
func makeScratch(f profileFactory, nodes int, from int64) profile.Kernel {
	if f == nil {
		return profile.NewTree(nodes, from)
	}
	return f(nodes, from)
}

// profileBacked is implemented by start policies that hold scratch
// availability profiles and accept a backend swap. Swapping drops the
// current scratch state (it is rebuilt per pass anyway).
type profileBacked interface {
	setProfileFactory(f profileFactory)
}

// Composite combines an Orderer and a Starter into a sim.Scheduler.
type Composite struct {
	order   Orderer
	start   Starter
	machine int
	// decider is the start policy's sim.DecisionExplainer view, resolved
	// once at composition (nil when the policy cannot classify starts).
	decider sim.DecisionExplainer
	// stable records the StableOrderer marker; epoch the EpochOrderer
	// view (nil for stable orders). Exactly one is set when batching.
	stable bool
	epoch  EpochOrderer
	// ixOrder/ixStart are the batched pass's views, set by Compose when
	// the order is StableOrderer (unbounded batches) or EpochOrderer
	// (batches truncated to the epoch window) — the preconditions for a
	// batched pass being equivalent to the Pick-until-nil loop — and both
	// sides are indexed. Both nil selects the one-start-per-call path.
	ixOrder IndexedOrderer
	ixStart IndexedStarter
	// interrupt is the cooperative cancellation hook (Interruptible),
	// polled between and inside batched passes; nil = never interrupt.
	interrupt func() bool
	// passDone is the predicted post-start state of the last fruitful
	// batched pass: when the engine's follow-up Startable call matches it
	// exactly, the pass was complete and the confirmation walk is skipped
	// (see Startable).
	passDone passMemo
}

// passMemo is the state signature a completed batched pass predicts for
// the engine's confirmation call.
type passMemo struct {
	valid      bool
	now        int64
	free       int
	queueLen   int
	runningLen int
}

var _ sim.Scheduler = (*Composite)(nil)
var _ sim.DecisionExplainer = (*Composite)(nil)

// Compose builds a scheduler from an order and a start policy for a
// machine of the given size. The pass protocol follows from the types
// alone: a StableOrderer or EpochOrderer that is also an IndexedOrderer,
// paired with an IndexedStarter, gets the batched pass; anything else —
// wrapped start policies (ReservedStarter and other WrapStarter layers)
// or hand-rolled orders — gets one Pick per Startable call.
func Compose(order Orderer, start Starter, machineNodes int) *Composite {
	if machineNodes <= 0 {
		panic("sched: machine must have at least one node")
	}
	c := &Composite{order: order, start: start, machine: machineNodes}
	c.decider, _ = start.(sim.DecisionExplainer)
	_, c.stable = order.(StableOrderer)
	if !c.stable {
		c.epoch, _ = order.(EpochOrderer)
	}
	if c.stable || c.epoch != nil {
		if io, ok := order.(IndexedOrderer); ok {
			if is, ok := start.(IndexedStarter); ok {
				c.ixOrder, c.ixStart = io, is
			}
		}
	}
	return c
}

// setProfileFactory swaps the start policy's scratch-profile backend
// (no-op for policies without one). Only the backend-independence tests
// call it.
func (c *Composite) setProfileFactory(f profileFactory) {
	if pb, ok := c.start.(profileBacked); ok {
		pb.setProfileFactory(f)
	}
}

// Name returns "<order>/<starter>", e.g. "FCFS/EASY-Backfilling".
func (c *Composite) Name() string {
	return c.order.Name() + "/" + c.start.Name()
}

// Submit implements sim.Scheduler.
func (c *Composite) Submit(j *job.Job, now int64) { c.order.Push(j, now) }

// JobStarted implements sim.Scheduler.
func (c *Composite) JobStarted(j *job.Job, now int64) { c.order.Remove(j, now) }

// JobFinished implements sim.Scheduler. Order policies in this package do
// not react to completions (reservation state is rebuilt by the starters).
func (c *Composite) JobFinished(j *job.Job, now int64) {}

// Startable implements sim.Scheduler. With the batched pass (see
// Compose), one call computes the whole pass against the order policy's
// queue.Index; the engine's follow-up call (after starting the batch)
// finds nothing new and terminates the pass. Epoch-stable orders
// (SMART/PSRS) batch too, truncated to the replan-free window.
// Otherwise one job per call: the Pick-until-nil loop the batched pass
// is specified against.
func (c *Composite) Startable(now int64, free int, running []sim.Running) []*job.Job {
	if c.order.Len() == 0 || free <= 0 {
		return nil
	}
	if c.ixStart == nil {
		j := c.start.Pick(c.order.Ordered(now), now, free, running, c.machine)
		if j == nil {
			return nil
		}
		return []*job.Job{j}
	}

	ix := c.ixOrder.OrderedIter(now)
	// A batched pass is complete: PickManyIndexed returns every job
	// startable at `now` (the property the batch equivalence tests pin),
	// so the engine's follow-up Startable call — its loop-termination
	// check — would walk the whole queue only to find nothing. If the
	// state is exactly the one the last fruitful pass predicted (same
	// instant, picked jobs moved from queue to running, their nodes
	// debited), answer it without the walk. Any other intervening change
	// (a same-instant outage, resubmit, or kill) breaks the signature and
	// forces the full pass. An epoch order's follow-up OrderedIter is
	// itself the replan-trigger check and has already run at exactly the
	// sequential protocol's point — the memo (set only when the pass
	// ended below the epoch window, so its removals provably left the
	// trigger cold) skips just the fruitless walk behind it.
	if m := &c.passDone; m.valid {
		m.valid = false
		if now == m.now && free == m.free &&
			ix.Len() == m.queueLen && len(running) == m.runningLen {
			return nil
		}
	}
	limit := 0
	if c.epoch != nil {
		limit = c.epoch.BatchWindow()
	}
	picked := c.ixStart.PickManyIndexed(ix, now, free, running, c.machine, limit)
	// An interrupted pass may have been abandoned mid-walk: its picks are
	// a prefix of the full pass, so the completion memo must not claim
	// the follow-up call needs no walk.
	if len(picked) > 0 && (c.stable || len(picked) < limit) && !stopNow(c.interrupt) {
		c.passDone = c.memoAfter(now, free, ix.Len(), len(running), picked)
	}
	return picked
}

// memoAfter predicts the post-start state signature of a fruitful pass.
func (c *Composite) memoAfter(now int64, free, queueLen, runningLen int, picked []*job.Job) passMemo {
	width := 0
	for _, j := range picked {
		width += j.Nodes
	}
	return passMemo{valid: true, now: now, free: free - width,
		queueLen: queueLen - len(picked), runningLen: runningLen + len(picked)}
}

// QueueLen implements sim.Scheduler.
func (c *Composite) QueueLen() int { return c.order.Len() }

// LastStartDecision implements sim.DecisionExplainer by delegating to the
// start policy.
func (c *Composite) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	if c.decider == nil {
		return telemetry.Decision{}, false
	}
	return c.decider.LastStartDecision(j)
}

// Instrument attaches telemetry hooks to the start and order policies
// (no-op for policies that are not Instrumented — order policies accept
// the queue-index op counter). sched.New calls it with Config.Hooks;
// hand-composed schedulers may call it directly.
func (c *Composite) Instrument(h telemetry.Hooks) {
	if in, ok := c.start.(Instrumented); ok {
		in.Instrument(h)
	}
	if in, ok := c.order.(Instrumented); ok {
		in.Instrument(h)
	}
}

// Announce hands announced maintenance windows to the start policy (no-op
// when the policy is not FailureAware — plain list scheduling and
// Garey&Graham have no projection to adjust; the engine still enforces
// the capacity loss either way). sched.New calls it with Config.Announced;
// hand-composed schedulers may call it directly.
func (c *Composite) Announce(windows []sim.Failure) {
	if fa, ok := c.start.(FailureAware); ok {
		fa.Announce(windows)
	}
}

// WrapStarter returns a new Composite whose start policy is wrap(old
// start policy) — used to layer cross-cutting admission rules (advance
// reservations, policy windows) over any grid algorithm.
func WrapStarter(c *Composite, wrap func(Starter) Starter) *Composite {
	return Compose(c.order, wrap(c.start), c.machine)
}

// OrderName selects an order policy.
type OrderName string

// Order policy names as they appear in the paper's tables.
const (
	OrderFCFS      OrderName = "FCFS"
	OrderPSRS      OrderName = "PSRS"
	OrderSMARTFFIA OrderName = "SMART-FFIA"
	OrderSMARTNFIW OrderName = "SMART-NFIW"
	OrderGG        OrderName = "Garey&Graham"
)

// StartName selects a start policy.
type StartName string

// Start policy names as they appear in the paper's tables.
const (
	StartList         StartName = "List"
	StartConservative StartName = "Backfilling"
	StartEASY         StartName = "EASY-Backfilling"
)

// Config parameterizes algorithm construction.
type Config struct {
	// MachineNodes is the size of the batch partition.
	MachineNodes int
	// Weight is the scheduling weight used by SMART and PSRS. Defaults to
	// job.UnitWeight (the unweighted objective); use job.AreaWeight for
	// the weighted objective.
	Weight job.WeightFunc
	// SmartGamma is SMART's geometric bin factor (paper: 2).
	SmartGamma float64
	// RecomputeRatio triggers SMART/PSRS replanning once this fraction of
	// the last plan has started (paper: 2/3).
	RecomputeRatio float64
	// MaxBackfillDepth bounds how many queued jobs the conservative
	// starter walks per pass (0 = unlimited, the paper's semantics).
	// Production installations bound this for tractability; an ablation
	// bench measures the effect.
	MaxBackfillDepth int
	// FastConservative selects the horizon-accelerated conservative
	// walk (near-linear passes, negligibly different decisions in
	// horizon-crossing corner cases) — used for paper-scale saturated
	// runs. See ConservativeStarter.
	FastConservative bool
	// Hooks attaches the telemetry layer (decision-trace recorder and
	// availability-profile op counters) to the start policy. The zero
	// value disables telemetry at the cost of one branch per decision
	// point.
	Hooks telemetry.Hooks
	// Announced lists maintenance windows known to the scheduler in
	// advance (faults.Plan.Announced): failure-aware start policies
	// (conservative and EASY backfilling) reserve around them instead of
	// starting jobs the drain would abort. Empty keeps every policy's
	// historical behavior bit-for-bit.
	Announced []sim.Failure
}

func (c Config) withDefaults() Config {
	if c.Weight == nil {
		c.Weight = job.UnitWeight
	}
	if c.SmartGamma == 0 {
		c.SmartGamma = 2
	}
	if c.RecomputeRatio == 0 {
		c.RecomputeRatio = 2.0 / 3.0
	}
	return c
}

// New builds one cell of the paper's algorithm grid. Garey&Graham ignores
// the start policy argument (backfilling "will be of no benefit for this
// method"): it always uses its own free-for-all start policy.
func New(order OrderName, start StartName, cfg Config) (*Composite, error) {
	cfg = cfg.withDefaults()
	if cfg.MachineNodes <= 0 {
		return nil, fmt.Errorf("sched: config needs MachineNodes > 0")
	}

	if order == OrderGG {
		c := Compose(NewFCFSOrder(string(OrderGG)), NewGareyGrahamStarter(), cfg.MachineNodes)
		c.Instrument(cfg.Hooks)
		if len(cfg.Announced) > 0 {
			c.Announce(cfg.Announced)
		}
		return c, nil
	}

	var ord Orderer
	switch order {
	case OrderFCFS:
		ord = NewFCFSOrder(string(OrderFCFS))
	case OrderPSRS:
		ord = NewPSRSOrder(cfg)
	case OrderSMARTFFIA:
		ord = NewSMARTOrder(FFIA, cfg)
	case OrderSMARTNFIW:
		ord = NewSMARTOrder(NFIW, cfg)
	default:
		return nil, fmt.Errorf("sched: unknown order policy %q", order)
	}

	var st Starter
	switch start {
	case StartList:
		st = NewListStarter()
	case StartConservative:
		if cfg.FastConservative {
			st = NewFastConservativeStarter(cfg.MaxBackfillDepth)
		} else {
			st = NewConservativeStarter(cfg.MaxBackfillDepth)
		}
	case StartEASY:
		st = NewEASYStarter()
	default:
		return nil, fmt.Errorf("sched: unknown start policy %q", start)
	}
	c := Compose(ord, st, cfg.MachineNodes)
	c.Instrument(cfg.Hooks)
	if len(cfg.Announced) > 0 {
		c.Announce(cfg.Announced)
	}
	return c, nil
}

// GridOrders returns the order policies of the paper's tables, in row order.
func GridOrders() []OrderName {
	return []OrderName{OrderFCFS, OrderPSRS, OrderSMARTFFIA, OrderSMARTNFIW, OrderGG}
}

// GridStarts returns the start policies of the paper's tables, in column order.
func GridStarts() []StartName {
	return []StartName{StartList, StartConservative, StartEASY}
}
