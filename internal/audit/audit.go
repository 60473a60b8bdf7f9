// Package audit is the online guarantee auditor: a core.Sink that
// continuously checks the service a class actually received against the
// service curve it was promised, attributes every violation to a cause,
// and tracks SLO burn rates over multi-resolution windows.
//
// The offline oracles (internal/conformance, internal/fluid) answer "did
// the guarantees hold?" after the fact, from a full packet trace. The
// auditor answers the same question live, from the event stream the
// scheduler already emits, using the fluid-SCED interpretation of H-FSC:
// when a leaf's busy period starts at time b, the real-time curve anchored
// at b owes the w-th byte of arrived work no later than
//
//	deadline(w) = b + RSC⁻¹(w)
//
// Service is FIFO within a class, so the packet that brings the work
// dequeued in the busy period to w is owed by deadline(w): each dequeue is
// checked against a pure function of one per-class counter, and the
// auditor keeps no per-packet state. Because the deadline follows the
// *actual* cumulative arrivals, the check is arrival-aware: a sender that
// bursts beyond its curve stretches its own deadlines instead of producing
// false scheduler blame. This per-busy-period anchoring is conservative
// with respect to the paper's exact deadline-curve update (which takes the
// min with the previous period's curve and can only make deadlines
// earlier), so a conforming run never produces false violations.
//
// Verdicts are attributed: a missed guarantee is tagged as non-conforming
// arrivals (the sender exceeded its curve, so nothing was owed),
// upper-limit deferral, an intake/queue-limit drop, cost mis-estimation
// (completion corrections moved the accounts), or — when nothing else
// explains it — genuine scheduler lateness.
//
// Like the flight recorder, the auditor is built to stay attached in
// production: one mutex taken once per staged batch, O(1) per event, and
// zero allocations in steady state (per-class state and window slots are
// allocated once and reused; memory does not grow with the backlog).
package audit

import (
	"sync"
	"time"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/fixpt"
	"github.com/netsched/hfsc/internal/pktq"
)

// Cause attributes one guarantee violation.
type Cause uint8

const (
	// CauseSchedulerLate: the arrivals conformed, nothing deferred or
	// corrected the class, and service still came later than the curve
	// owed — the scheduler itself failed the guarantee (e.g. a mis-sliced
	// shard rate or an inadmissible configuration).
	CauseSchedulerLate Cause = iota
	// CauseNonConformingArrival: the sender exceeded its service curve's
	// arrival envelope during this busy period, so the advertised delay
	// bound was not owed for the late work.
	CauseNonConformingArrival
	// CauseUlimitDefer: an upper-limit curve deferred service while the
	// class fell behind; the lateness is the configured ceiling, not a
	// scheduling fault.
	CauseUlimitDefer
	// CauseDrop: the packet never got service at all — refused at a full
	// leaf queue (or counted by a driver at intake) — so the guarantee was
	// broken by loss, not by late scheduling.
	CauseDrop
	// CauseCostCorrection: completion corrections re-charged the class
	// during the busy period, so the work the deadlines were computed from
	// was mis-estimated.
	CauseCostCorrection

	// CauseCount bounds the declared causes.
	CauseCount
)

func (c Cause) String() string {
	switch c {
	case CauseSchedulerLate:
		return "scheduler-late"
	case CauseNonConformingArrival:
		return "nonconforming-arrival"
	case CauseUlimitDefer:
		return "ulimit-defer"
	case CauseDrop:
		return "drop"
	case CauseCostCorrection:
		return "cost-correction"
	default:
		return "unknown"
	}
}

// Verdict is a class's (or a whole link's) current guarantee health.
type Verdict uint8

const (
	// VerdictOK: no violations in the burn window and positive margin.
	VerdictOK Verdict = iota
	// VerdictAtRisk: violations within the 5-minute window, or the
	// conformance margin has dipped below the tolerance — the guarantee
	// held but with no headroom.
	VerdictAtRisk
	// VerdictViolated: violations within the last 30 seconds.
	VerdictViolated
)

func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictAtRisk:
		return "at-risk"
	case VerdictViolated:
		return "violated"
	default:
		return "unknown"
	}
}

// tolerance is the lateness (ns) forgiven before a deadline check counts
// as a violation: the fluid model delivers continuously while the link
// delivers in whole packets at discrete pass clocks.
const tolerance = int64(time.Millisecond)

// burnSeconds is the burn-rate ring length: 5 minutes of one-second
// buckets, so the 1 s / 30 s / 5 m windows all read from one ring.
const burnSeconds = 300

// marginSlots is the sliding window (seconds) over which the minimum
// conformance margin is reported: a ring of one-second sub-windows,
// pruned against the window at read time.
const marginSlots = 8

// burnSlot is one second of violation accounting. key is the epoch
// second plus one, so the zero value means "never used" even for traces
// running on a virtual clock near zero.
type burnSlot struct {
	key    int64
	checks uint32
	viols  uint32
}

// marginSlot is one second of conformance-margin minima (key as above).
type marginSlot struct {
	key int64
	min int64
}

// classRings are a class's burn-rate and margin windows (about 5 KB). Only a
// class that records a check or samples a margin — a guaranteed class, or
// one that drops — needs them, so they are allocated on first use.
type classRings struct {
	burn    [burnSeconds]burnSlot
	margins [marginSlots]marginSlot
}

// classAudit is the per-class auditor state.
type classAudit struct {
	id   int
	name string

	// Guaranteed curve, recompiled only when the class's RSC changes
	// (live retuning); hasRT gates all deadline work. sustained is the
	// curve's long-term slope (bytes/s): the token-bucket arrival rate the
	// delay bound is owed for, even when the curve itself is convex and
	// delivers less early in the busy period. curveGen is the class's
	// curve generation rscSC was read at (once curveSeen), so an
	// unchanged class costs one integer compare per enqueue.
	curveGen  uint64
	curveSeen bool
	rscSC     curve.SC
	rsc       curve.Curve
	hasRT     bool
	sustained int64

	// Tail fast-path constants, derived from rsc by refreshCurve: the
	// start of the curve's final linear segment, its slope, and the dt
	// beyond which sustained*dt would overflow. They let the per-packet
	// deadline and conformance checks run on one 64-bit multiply/divide
	// instead of the segment walk with 128-bit division.
	kneeX    int64
	kneeY    int64
	tailRate int64
	infDt    int64

	// Busy-period state, anchored at every empty→backlogged edge and
	// re-anchored when a retuned curve is first seen (startPeriod). The
	// class is empty once dequeued reaches arrived.
	busy          bool
	anchor        int64
	arrived       int64  // cumulative work enqueued since anchor
	dequeued      int64  // cumulative work dequeued since anchor
	nonConforming bool   // arrivals exceeded the envelope this busy period
	corrAtAnchor  uint64 // corrections total when the period started
	defAtAnchor   uint64 // auditor-global ulimit defers when it started
	stallCounted  bool   // the backlog head was already flagged by Tick

	// burstAllow is the instantaneous burst (bytes) arrivals may exceed
	// the fluid envelope by before the period is marked non-conforming.
	// Defaults to the largest single work unit observed; SetBurst pins it
	// (e.g. to an SLO's advertised burst).
	burstAllow    int64
	explicitBurst bool
	maxWork       int64 // largest single work unit seen (the class's lmax)

	checks   uint64
	viols    [CauseCount]uint64
	corrs    uint64 // completion corrections observed
	misses   uint64 // scheduler-reported EvDeadlineMiss corroborations
	badStart uint64 // busy periods that went non-conforming

	worstLateNs int64 // worst lateness past the allowance (genuine causes)
	delayMaxNs  int64 // worst observed per-packet delay (arrival→dequeue)

	rings     *classRings // nil until the first check or margin sample
	minMargin int64       // all-time minimum margin
	hasMargin bool
}

// ensureRings returns the class's windows, allocating them on first use.
func (st *classAudit) ensureRings() *classRings {
	if st.rings == nil {
		st.rings = new(classRings)
	}
	return st.rings
}

// Auditor folds scheduler events into per-class guarantee verdicts. It
// implements core.Sink (attach it behind a core.Batch, as
// hfsc.Config.Audit does) and, for offline use, core.Tracer. All methods
// are safe for concurrent use; Apply and Trace are allocation-free in
// steady state.
type Auditor struct {
	mu       sync.Mutex
	linkRate uint64
	classes  []*classAudit // indexed by class id; nil = never seen or forgotten

	lastEvent    int64
	ulimitDefers uint64
	lmax         int64 // largest work unit seen anywhere (Theorem 1 slack)
	slackNs      int64 // lmax's transmission time at linkRate

	// burstByID holds SetBurst values for classes that have not produced
	// events yet; drained into classAudit.burstAllow on first sight.
	burstByID map[int]int64
}

// New creates an auditor for a link of linkRate bytes/s. The rate
// converts the largest observed work unit into the one-packet
// transmission slack every fluid deadline is granted (the Theorem 1
// "+ lmax/R" term); zero grants no slack beyond the 1 ms tolerance.
func New(linkRate uint64) *Auditor {
	return &Auditor{linkRate: linkRate}
}

// SetBurst pins the arrival-conformance burst allowance for a class (in
// work units), e.g. an SLO's advertised burst. Without it the allowance
// tracks the largest single work unit the class has submitted.
func (a *Auditor) SetBurst(classID int, burst int64) {
	if classID < 0 || burst <= 0 {
		return
	}
	a.mu.Lock()
	if classID < len(a.classes) && a.classes[classID] != nil {
		st := a.classes[classID]
		st.burstAllow = burst
		st.explicitBurst = true
	} else {
		if a.burstByID == nil {
			a.burstByID = map[int]int64{}
		}
		a.burstByID[classID] = burst
	}
	a.mu.Unlock()
}

// Forget drops a removed class's audit state and any burst allowance
// still pending for it, so snapshots list only live classes. A class
// re-created under the same name has a fresh id and is audited from
// zero. Call it only once the class has been removed from the scheduler.
func (a *Auditor) Forget(id int) {
	a.mu.Lock()
	if id >= 0 && id < len(a.classes) {
		a.classes[id] = nil
	}
	delete(a.burstByID, id)
	a.mu.Unlock()
}

// state returns (creating on first use) the per-class audit state.
func (a *Auditor) state(cl *core.Class) *classAudit {
	id := cl.ID()
	for id >= len(a.classes) {
		a.classes = append(a.classes, nil)
	}
	st := a.classes[id]
	if st == nil {
		st = &classAudit{id: id, name: cl.Name(), minMargin: curve.Inf}
		if b, ok := a.burstByID[id]; ok {
			st.burstAllow = b
			st.explicitBurst = true
			delete(a.burstByID, id)
		}
		a.classes[id] = st
	}
	return st
}

// refreshCurve recompiles the class's guaranteed curve if it changed
// (first sight, or a live SetCurves retune) and reports whether it did.
// Compiling allocates, so it only happens on change — never per event in
// steady state. A SetCurves that leaves the real-time curve as it was is
// not a change.
func (st *classAudit) refreshCurve(cl *core.Class) bool {
	gen := cl.CurveGen()
	if st.curveSeen && gen == st.curveGen {
		return false
	}
	st.curveSeen, st.curveGen = true, gen
	sc := cl.RSC()
	if sc == st.rscSC && (st.hasRT || sc.IsZero()) {
		return false
	}
	st.rscSC = sc
	st.hasRT = !sc.IsZero()
	if st.hasRT {
		st.rsc = curve.FromSC(sc)
		st.sustained = int64(sc.M2)
		kx, ky, m := st.rsc.Tail()
		st.kneeX, st.kneeY, st.tailRate = kx, ky, int64(m)
	} else {
		st.rsc = curve.Curve{}
		st.sustained = 0
		st.kneeX, st.kneeY, st.tailRate = 0, 0, 0
	}
	if st.sustained > 0 {
		st.infDt = curve.Inf / st.sustained
	} else {
		st.infDt = curve.Inf
	}
	return true
}

// maxTailDY bounds the fast-path offset past the knee: dy*NsPerSec must
// fit in an int64, so offsets beyond ~9.2 GB fall back to the exact
// 128-bit Inverse.
const maxTailDY = curve.Inf / int64(time.Second)

// deadlineRel is rsc.Inverse(y) with a fast path on the curve's final
// linear segment — one 64-bit multiply and divide instead of the segment
// walk and 128-bit division, bit-exact with Inverse in its range.
func (st *classAudit) deadlineRel(y int64) int64 {
	if dy := y - st.kneeY; dy > 0 && dy < maxTailDY && st.tailRate > 0 {
		n := dy * int64(time.Second)
		q := n / st.tailRate
		if n%st.tailRate != 0 {
			q++
		}
		return fixpt.SatAdd(st.kneeX, q)
	}
	return st.rsc.Inverse(y)
}

// overEnvelope reports whether cumulative arrivals exceed the arrival
// entitlement dt ns into the busy period: the service curve itself, or
// the token bucket at the curve's sustained rate, whichever admits more
// (plus the burst allowance). A sender inside either is owed the
// advertised bound — the curve for concave shapes, the token bucket for
// convex ones (whose early segments deliberately deliver less than the
// long-term rate, e.g. ForRealTime with u/dmax below the rate). The
// token-bucket arm is checked first: it is one multiply and clears every
// conforming steady-state sender, so the curve walk only runs for
// arrivals already past the bucket.
func (st *classAudit) overEnvelope(dt int64) bool {
	over := st.arrived - st.burstAllow
	if over <= 0 {
		return false
	}
	if st.sustained > 0 && dt > 0 {
		if dt >= st.infDt {
			return false // bucket entitlement saturated at Inf
		}
		if over <= st.sustained*dt/int64(time.Second) {
			return false
		}
	}
	return over > st.rsc.Eval(dt)
}

// allow is the total lateness forgiven on a deadline: the fluid model's
// one-packet transmission slack plus the tolerance.
func (a *Auditor) allow() int64 { return a.slackNs + tolerance }

// observeWork tracks the largest work unit (the empirical lmax) and the
// transmission slack it implies at the configured link rate.
func (a *Auditor) observeWork(st *classAudit, w int64) {
	if w > st.maxWork {
		st.maxWork = w
		if !st.explicitBurst && w > st.burstAllow {
			st.burstAllow = w
		}
	}
	if w > a.lmax {
		a.lmax = w
		if a.linkRate > 0 {
			a.slackNs = w * int64(time.Second) / int64(a.linkRate)
		}
	}
}

// Apply implements core.Sink: it folds a staged batch of events in order
// under one lock hold.
func (a *Auditor) Apply(recs []core.Record) {
	a.mu.Lock()
	for i := range recs {
		a.apply(&recs[i])
	}
	a.mu.Unlock()
}

// Trace implements core.Tracer as a one-record Apply.
func (a *Auditor) Trace(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
	rec := [1]core.Record{core.NewRecord(ev, cl, p, now, aux)}
	a.Apply(rec[:])
}

// apply folds one event; the caller holds a.mu.
func (a *Auditor) apply(r *core.Record) {
	now, cl := r.Now, r.Class
	if now > a.lastEvent {
		a.lastEvent = now
	}
	switch r.Ev {
	case core.EvEnqueue:
		a.enqueue(a.state(cl), cl, r.Work, now)
	case core.EvDrop:
		st := a.state(cl)
		st.checks++
		st.viols[CauseDrop]++
		st.record(now/int64(time.Second), true)
	case core.EvDequeueRT, core.EvDequeueLS:
		a.dequeue(a.state(cl), r.Work, r.Arrival, now)
	case core.EvDeadlineMiss:
		a.state(cl).misses++
	case core.EvUlimitDefer:
		a.ulimitDefers++
	case core.EvCorrect:
		// A correction moves no fluid deadline; attribution reads the count.
		a.state(cl).corrs++
	}
}

// startPeriod anchors a busy period at now whose arrivals so far are the
// queued work.
func (a *Auditor) startPeriod(st *classAudit, now, queued int64) {
	st.busy = true
	st.anchor = now
	st.arrived = queued
	st.dequeued = 0
	st.nonConforming = false
	st.corrAtAnchor = st.corrs
	st.defAtAnchor = a.ulimitDefers
}

// enqueue anchors busy periods and checks arrival conformance against the
// curve's envelope. The first enqueue after a live retune re-anchors a
// busy period at its own clock, with the work still queued as the new
// period's arrivals: the core likewise restarts the class's deadline
// curve at the retune, and the new curve owes nothing for the old
// anchor's past.
func (a *Auditor) enqueue(st *classAudit, cl *core.Class, w, now int64) {
	retuned := st.refreshCurve(cl)
	if !st.busy {
		a.startPeriod(st, now, 0)
	} else if retuned {
		a.startPeriod(st, now, st.arrived-st.dequeued)
	}
	st.arrived += w
	a.observeWork(st, w)
	if st.hasRT && !st.nonConforming && st.overEnvelope(now-st.anchor) {
		st.nonConforming = true
		st.badStart++
	}
}

// dequeue checks a departure against the fluid deadline of the cumulative
// work it completes (service is FIFO within a class), samples the
// conformance margin, and counts + attributes a violation when the
// guarantee was missed. A departure outside a busy period — its enqueue
// was never seen — is not checked.
func (a *Auditor) dequeue(st *classAudit, work, arrival, now int64) {
	if !st.busy {
		return
	}
	counted := st.stallCounted
	st.stallCounted = false
	st.dequeued += work
	if st.hasRT {
		sec := now / int64(time.Second)
		margin := fixpt.SatAdd(st.anchor, st.deadlineRel(st.dequeued)) + a.allow() - now
		st.sampleMargin(sec, margin)
		delay := max(now-arrival, 0)
		if delay > st.delayMaxNs {
			st.delayMaxNs = delay
		}
		// A packet Tick already flagged as stalled was checked (and its
		// violation counted) there; don't check it twice.
		if !counted {
			late := -margin
			viol := late > 0
			// Per-packet delay versus the fluid-SCED delay bound: only a
			// sender inside its envelope is owed the bound, so an
			// over-bound delay with conforming arrivals and a met
			// deadline is impossible; with non-conforming arrivals it is
			// burn the sender caused.
			if !viol && st.nonConforming && delay > 0 {
				if bound := st.delayBound(a); bound < curve.Inf-tolerance && delay > bound+tolerance {
					viol = true
				}
			}
			st.checks++
			if viol {
				cause := st.attribute(a)
				st.viols[cause]++
				if cause == CauseSchedulerLate || cause == CauseUlimitDefer {
					if late > st.worstLateNs {
						st.worstLateNs = late
					}
				}
				st.record(sec, true)
			} else {
				st.record(sec, false)
			}
		}
	}
	if st.dequeued >= st.arrived {
		st.busy = false
	}
}

// attribute picks the cause of a missed guarantee, most-excusing first:
// a sender over its curve was owed nothing; corrections mean the
// deadlines were computed from wrong costs; an upper-limit deferral this
// busy period means the ceiling, not the scheduler, held service back.
// Only when none of those apply is the scheduler itself blamed.
func (st *classAudit) attribute(a *Auditor) Cause {
	switch {
	case st.nonConforming:
		return CauseNonConformingArrival
	case st.corrs > st.corrAtAnchor:
		return CauseCostCorrection
	case a.ulimitDefers > st.defAtAnchor:
		return CauseUlimitDefer
	default:
		return CauseSchedulerLate
	}
}

// delayBound is the class's advertised fluid-SCED delay bound: the time
// the curve takes to absorb the burst allowance, plus one maximum
// packet's transmission time at the link rate (Theorem 1).
func (st *classAudit) delayBound(a *Auditor) int64 {
	if !st.hasRT || st.burstAllow <= 0 {
		return 0
	}
	t := st.rsc.Inverse(st.burstAllow)
	if t == curve.Inf {
		return curve.Inf
	}
	return t + a.slackNs
}

// record folds one check into the burn-rate ring; sec is the event's
// epoch second (now / 1e9), computed once by the caller.
func (st *classAudit) record(sec int64, violated bool) {
	slot := &st.ensureRings().burn[int(sec%burnSeconds)]
	if slot.key != sec+1 {
		slot.key = sec + 1
		slot.checks = 0
		slot.viols = 0
	}
	slot.checks++
	if violated {
		slot.viols++
	}
}

// sampleMargin folds one conformance-margin sample (ns of headroom;
// negative = lateness) into the sliding-minimum window; sec is the
// event's epoch second, computed once by the caller.
func (st *classAudit) sampleMargin(sec, margin int64) {
	if margin < st.minMargin {
		st.minMargin = margin
	}
	st.hasMargin = true
	slot := &st.ensureRings().margins[int(sec%marginSlots)]
	if slot.key != sec+1 {
		slot.key = sec + 1
		slot.min = margin
		return
	}
	if margin < slot.min {
		slot.min = margin
	}
}

// Tick samples every backlogged class's conformance margin at clock now
// — the periodic cumulative-work probe that catches a stalled class
// between dequeues (a class that never dequeues again would otherwise
// never fail a check). Each stalled packet is counted at most once: the
// dequeue that eventually pops it sees stallCounted and skips the
// double-count. Drivers call this from their pacing loop; Snapshot calls
// it too, so pull-based readers stay fresh.
func (a *Auditor) Tick(now int64) {
	a.mu.Lock()
	if now > a.lastEvent {
		a.lastEvent = now
	}
	allow := a.allow()
	sec := now / int64(time.Second)
	for _, st := range a.classes {
		if st == nil || !st.busy || !st.hasRT {
			continue
		}
		// The head's cumulative work is at most one largest unit past the
		// work dequeued, so its probed deadline is never earlier than its
		// own — a stall is never flagged early — and exact when the class's
		// units are all one size.
		head := min(st.arrived, st.dequeued+st.maxWork)
		margin := fixpt.SatAdd(st.anchor, st.deadlineRel(head)) + allow - now
		st.sampleMargin(sec, margin)
		if margin < 0 && !st.stallCounted {
			st.stallCounted = true
			st.checks++
			cause := st.attribute(a)
			st.viols[cause]++
			if cause == CauseSchedulerLate || cause == CauseUlimitDefer {
				if -margin > st.worstLateNs {
					st.worstLateNs = -margin
				}
			}
			st.record(sec, true)
		}
	}
	a.mu.Unlock()
}
