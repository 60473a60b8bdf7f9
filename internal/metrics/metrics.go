// Package metrics is the always-on observability pipeline for the H-FSC
// scheduler: it turns the core's synchronous tracer events into per-class
// fixed-bucket histograms (deadline slack, queueing delay), rolling EWMA
// service-rate estimators and monotonic counters, and renders the result
// as immutable snapshots or Prometheus text exposition.
//
// The pipeline is event → Aggregator → Snapshot/exposition:
//
//   - the core scheduler emits events (enqueue, drop+reason, dequeue with
//     deadline slack, deadline miss, activation, upper-limit deferral) on
//     the scheduling path;
//   - the Aggregator (a core.Sink) folds them into per-class state under
//     one mutex, taken once per staged batch (Apply) — after warm-up it
//     allocates nothing per event, so it can stay attached in production;
//   - Snapshot copies the state out for callers (safe from any goroutine),
//     and WritePrometheus renders a snapshot for scraping.
//
// The paper's evaluation measures per-class service rates, delays versus
// deadlines and computation overhead offline; this package exports the
// same signals continuously from a live scheduler.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/stats"
)

// DefaultWindow is the EWMA time constant for the per-class service-rate
// estimators.
const DefaultWindow = time.Second

// DelayBuckets are the histogram upper bounds (ns) for nonnegative
// durations such as queueing delay: roughly logarithmic from 10 µs to 10 s.
// Read-only: every class's queue-delay histogram shares them.
var DelayBuckets = delayBounds[:]

// SlackBuckets are the histogram upper bounds (ns) for deadline
// slack (deadline − departure). Negative values are deadline misses; the
// negative range is mirrored so the miss magnitude is visible too.
// Read-only: every class's slack histogram shares them.
var SlackBuckets = slackBounds[:]

// The default bounds as arrays, so a class's bucket counts can be sized
// at compile time (classState.counts).
var (
	delayBounds = [...]int64{
		10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
		100_000_000, 250_000_000, 500_000_000, 1_000_000_000, 10_000_000_000,
	}
	slackBounds = [...]int64{
		-10_000_000, -1_000_000, -100_000, -10_000, 0,
		10_000, 100_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
		25_000_000, 50_000_000, 100_000_000, 1_000_000_000,
	}
)

// delaySet and slackSet are the default bucket sets, built once and shared
// by every class's histograms.
var (
	delaySet = newBucketSet(DelayBuckets)
	slackSet = newBucketSet(SlackBuckets)
)

// bucketSet is the immutable layout of a histogram: its bounds and the
// lookup table derived from them.
type bucketSet struct {
	bounds []int64
	// lut maps bits.Len64(uint64(v)) to the first bucket any value of
	// that bit length can land in, turning the per-observation bucket
	// search into one table load plus a tail scan bounded by how many
	// bounds share a power-of-two decade — ≤2 for the log-spaced default
	// bucket sets, versus a ~4-step branch-mispredicting binary search.
	// Index 64 (negative values, two's complement) starts at bucket 0.
	lut [65]uint16
}

func newBucketSet(bounds []int64) *bucketSet {
	b := &bucketSet{bounds: bounds}
	for bl := 1; bl <= 63; bl++ {
		min := int64(1) << (bl - 1) // smallest positive value with bit length bl
		i := 0
		for i < len(bounds) && bounds[i] < min {
			i++
		}
		b.lut[bl] = uint16(i)
	}
	return b
}

// Histogram is a fixed-bucket histogram over int64 values (ns). Bounds are
// per-bucket upper bounds in ascending order; one extra overflow bucket
// catches values beyond the last bound. Not safe for concurrent use (the
// Aggregator serializes access).
type Histogram struct {
	set    *bucketSet
	counts []uint64 // len(bounds)+1; the last is the overflow bucket
	sum    int64
	n      uint64
}

// NewHistogram creates a histogram over the given ascending upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{set: newBucketSet(bounds), counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one value.
func (h *Histogram) Observe(v int64) {
	b := h.set
	i := int(b.lut[bits.Len64(uint64(v))])
	for i < len(b.bounds) && v > b.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// HistogramSnapshot is an immutable copy of a Histogram.
type HistogramSnapshot struct {
	Bounds []int64  // per-bucket upper bounds (ns), ascending
	Counts []uint64 // non-cumulative; len(Bounds)+1, last = overflow (+Inf)
	Sum    int64    // sum of observed values (ns)
	Count  uint64   // number of observations
}

// snapshotInto copies the histogram, carving its counts off the front of
// slab, and returns the rest of the slab. The counts slice is capped at
// its length, so an append to it reallocates instead of running into the
// next histogram's counts.
func (h *Histogram) snapshotInto(slab []uint64) (HistogramSnapshot, []uint64) {
	n := len(h.counts)
	counts := slab[:n:n]
	copy(counts, h.counts)
	return HistogramSnapshot{
		Bounds: h.set.bounds, // bounds are never mutated; share them
		Counts: counts,
		Sum:    h.sum,
		Count:  h.n,
	}, slab[n:]
}

// SnapshotHistogram copies a standalone Histogram (the Aggregator snapshots
// its own histograms internally; this is for direct Histogram users).
func SnapshotHistogram(h *Histogram) HistogramSnapshot {
	hs, _ := h.snapshotInto(make([]uint64, len(h.counts)))
	return hs
}

// Quantile estimates the q-quantile (bucket upper bound convention; see
// stats.QuantileFromBuckets).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return stats.QuantileFromBuckets(s.Bounds, s.Counts, q)
}

// EWMA estimates a byte rate (bytes/s) with exponential decay over a
// configurable time constant, robust to irregular observation intervals:
// same-instant observations accumulate, and the blend weight of each batch
// is 1−exp(−Δt/τ).
type EWMA struct {
	tau  float64 // time constant, ns
	rate float64 // bytes/s
	pend int64   // bytes observed since last fold
	last int64   // clock of the last fold
	init bool
}

// SetTau sets the time constant (ns). Zero or negative falls back to
// DefaultWindow.
func (e *EWMA) SetTau(tauNs float64) {
	if tauNs <= 0 {
		tauNs = float64(DefaultWindow.Nanoseconds())
	}
	e.tau = tauNs
}

// foldSteps bounds how often Observe pays for a fold: observations landing
// within tau/foldSteps of the last fold only accumulate. The batch's blend
// weight is the same to first order (1−exp is near-linear over intervals
// this small), so the estimate differs by O(1/foldSteps) while the
// common-case Observe is a counter update instead of a math.Exp.
const foldSteps = 128

// Observe credits n bytes at clock now (ns).
func (e *EWMA) Observe(n, now int64) {
	if !e.init {
		e.init = true
		e.last = now
		e.pend = n
		return
	}
	e.pend += n
	dt := now - e.last
	if dt <= 0 || float64(dt)*foldSteps < e.tau {
		return
	}
	inst := float64(e.pend) * 1e9 / float64(dt)
	a := 1 - math.Exp(-float64(dt)/e.tau)
	e.rate += a * (inst - e.rate)
	e.last = now
	e.pend = 0
}

// Rate reports the estimated rate (bytes/s) at clock now, decaying toward
// zero over idle time without mutating the estimator.
func (e *EWMA) Rate(now int64) float64 {
	if !e.init {
		return 0
	}
	r := e.rate
	if dt := now - e.last; dt > 0 {
		// Fold pending bytes as if the interval ended now, then decay.
		inst := float64(e.pend) * 1e9 / float64(dt)
		a := 1 - math.Exp(-float64(dt)/e.tau)
		r += a * (inst - r)
	}
	return r
}

// classState is the per-class aggregate.
type classState struct {
	id   int
	name string
	leaf bool

	enqPkts     uint64
	enqBytes    int64
	sentRTPkts  uint64
	sentRTBytes int64
	sentLSPkts  uint64
	sentLSBytes int64

	drops         [4]uint64 // indexed by core.DropReason
	deadlineMiss  uint64
	activations   uint64
	corrections   uint64
	correctedCost int64
	queuedPkts    int64
	queuedBytes   int64
	slack, qdelay Histogram
	rate, rateRT  EWMA

	// counts backs both histograms' buckets (slack first), so a class's
	// state is a single allocation.
	counts [len(slackBounds) + 1 + len(delayBounds) + 1]uint64
}

// Aggregator folds core scheduler events into per-class metrics. It
// implements core.Sink (attach it behind a core.Batch, as
// hfsc.Config.Metrics does) and, for offline use, core.Tracer. All
// methods are safe for concurrent use; Apply and Trace are
// allocation-free in steady state.
type Aggregator struct {
	mu      sync.Mutex
	classes []*classState // indexed by class id; nil = never seen or forgotten

	lastEvent    int64
	ulimitDefers uint64
	dropUnknown  uint64
	dropBadPkt   uint64
	// Driver-level intake drops, published as monotonic totals by
	// RecordIntake (counted upstream in lock-free shard counters) or
	// incrementally by CountDrop.
	dropIntakeFull uint64
	dropStopped    uint64

	// Sampled packet-lifecycle spans (ObserveSpan): the latency
	// decomposition of 1-in-N packets into intake wait and queueing delay.
	spansSampled uint64
	spanIntake   *Histogram
	spanQueue    *Histogram

	// Flight-recorder totals, published monotonically by RecordFlight
	// (like RecordIntake: counted lock-free upstream, synced on snapshot).
	flightRecorded uint64
	flightDropped  uint64
}

// NewAggregator creates an aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		spanIntake: NewHistogram(DelayBuckets),
		spanQueue:  NewHistogram(DelayBuckets),
	}
}

// state returns (creating on first use) the per-class aggregate.
func (a *Aggregator) state(cl *core.Class) *classState {
	id := cl.ID()
	for id >= len(a.classes) {
		a.classes = append(a.classes, nil)
	}
	st := a.classes[id]
	if st == nil {
		st = &classState{id: id, name: cl.Name(), leaf: cl.IsLeaf()}
		ns := len(slackBounds) + 1
		st.slack = Histogram{set: slackSet, counts: st.counts[:ns:ns]}
		st.qdelay = Histogram{set: delaySet, counts: st.counts[ns:]}
		st.rate.SetTau(float64(DefaultWindow))
		st.rateRT.SetTau(float64(DefaultWindow))
		a.classes[id] = st
	}
	return st
}

// Forget drops a removed class's state, so snapshots and expositions list
// only live classes and a scrape costs O(live classes). The class's series
// go stale the way a deleted Prometheus label value does; a class later
// re-created under the same name has a fresh id and starts from zero.
// Call it only once the class has been removed from the scheduler (a
// removed class is passive, so nothing in flight is lost).
func (a *Aggregator) Forget(id int) {
	a.mu.Lock()
	if id >= 0 && id < len(a.classes) {
		a.classes[id] = nil
	}
	a.mu.Unlock()
}

// Apply implements core.Sink: it folds a staged batch of events in order
// under one lock hold.
func (a *Aggregator) Apply(recs []core.Record) {
	a.mu.Lock()
	for i := range recs {
		a.apply(&recs[i])
	}
	a.mu.Unlock()
}

// Trace implements core.Tracer as a one-record Apply.
func (a *Aggregator) Trace(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
	rec := [1]core.Record{core.NewRecord(ev, cl, p, now, aux)}
	a.Apply(rec[:])
}

// apply folds one event; the caller holds a.mu.
func (a *Aggregator) apply(r *core.Record) {
	now, cl, work := r.Now, r.Class, r.Work
	if now > a.lastEvent {
		a.lastEvent = now
	}
	switch r.Ev {
	case core.EvEnqueue:
		st := a.state(cl)
		st.enqPkts++
		st.enqBytes += work
		st.queuedPkts++
		st.queuedBytes += work
	case core.EvDrop:
		st := a.state(cl)
		dr := core.DropReason(r.Aux)
		if dr == core.DropNone || int(dr) >= len(st.drops) {
			dr = core.DropQueueLimit
		}
		st.drops[dr]++
	case core.EvDequeueRT:
		st := a.state(cl)
		st.sentRTPkts++
		st.sentRTBytes += work
		st.slack.Observe(r.Aux)
		st.rateRT.Observe(work, now)
		a.dequeued(st, r)
	case core.EvDequeueLS:
		st := a.state(cl)
		st.sentLSPkts++
		st.sentLSBytes += work
		a.dequeued(st, r)
	case core.EvDeadlineMiss:
		a.state(cl).deadlineMiss++
	case core.EvActivate:
		a.state(cl).activations++
	case core.EvUlimitDefer:
		a.ulimitDefers++
	case core.EvCorrect:
		st := a.state(cl)
		st.corrections++
		st.correctedCost += r.Aux
	}
}

// dequeued applies the criterion-independent bookkeeping of a departure.
// Queue delay runs from the packet's arrival stamp, which every enqueue
// path sets to the enqueue clock when the submitter left it zero.
func (a *Aggregator) dequeued(st *classState, r *core.Record) {
	st.queuedPkts--
	st.queuedBytes -= r.Work
	st.rate.Observe(r.Work, r.Now)
	st.qdelay.Observe(max(r.Now-r.Arrival, 0))
}

// CountDrop records a packet refused before it reached the core scheduler
// (admission drops: unknown class, malformed packet). The public wrapper
// calls this so core-level queue drops and wrapper-level admission drops
// share one set of reason codes.
func (a *Aggregator) CountDrop(reason core.DropReason, now int64) {
	a.mu.Lock()
	if now > a.lastEvent {
		a.lastEvent = now
	}
	switch reason {
	case core.DropBadPacket:
		a.dropBadPkt++
	case core.DropIntakeFull:
		a.dropIntakeFull++
	case core.DropStopped:
		a.dropStopped++
	default:
		a.dropUnknown++
	}
	a.mu.Unlock()
}

// RecordIntake publishes a driver's cumulative intake-drop totals
// (ring-full and submit-after-stop). Drivers count these in lock-free
// per-shard counters on the producer path and sync the monotonic totals
// here on snapshot, so the hot path never takes the aggregator mutex; the
// totals only move forward. Do not mix with CountDrop for the same
// reasons (the absolute total would double-count the increments).
func (a *Aggregator) RecordIntake(intakeFull, stopped uint64, now int64) {
	a.mu.Lock()
	if now > a.lastEvent {
		a.lastEvent = now
	}
	if intakeFull > a.dropIntakeFull {
		a.dropIntakeFull = intakeFull
	}
	if stopped > a.dropStopped {
		a.dropStopped = stopped
	}
	a.mu.Unlock()
}

// ObserveSpan folds one sampled packet-lifecycle span into the latency
// decomposition: intake wait (submit → intake drain) and queueing delay
// (enqueue → dequeue), both ns. Negative components (possible when the
// stamping clocks are read on different goroutines) clamp to zero rather
// than corrupting the histograms.
func (a *Aggregator) ObserveSpan(intake, queue, now int64) {
	if intake < 0 {
		intake = 0
	}
	if queue < 0 {
		queue = 0
	}
	a.mu.Lock()
	if now > a.lastEvent {
		a.lastEvent = now
	}
	a.spansSampled++
	a.spanIntake.Observe(intake)
	a.spanQueue.Observe(queue)
	a.mu.Unlock()
}

// RecordFlight publishes a flight recorder's cumulative totals (records
// written and records overwritten before any reader saw them). Monotone,
// like RecordIntake: drivers sync the absolute values on snapshot.
func (a *Aggregator) RecordFlight(recorded, dropped uint64, now int64) {
	a.mu.Lock()
	if now > a.lastEvent {
		a.lastEvent = now
	}
	if recorded > a.flightRecorded {
		a.flightRecorded = recorded
	}
	if dropped > a.flightDropped {
		a.flightDropped = dropped
	}
	a.mu.Unlock()
}

// ClassSnapshot is an immutable copy of one class's metrics.
type ClassSnapshot struct {
	ID   int
	Name string
	Leaf bool

	// Monotonic counters.
	EnqueuedPackets uint64
	EnqueuedBytes   int64
	SentPacketsRT   uint64
	SentBytesRT     int64
	SentPacketsLS   uint64
	SentBytesLS     int64
	DropsQueueLimit uint64
	DeadlineMisses  uint64
	Activations     uint64
	// Corrections counts completion corrections applied to the class
	// (Scheduler.Correct); CorrectedCost is their signed sum in cost units
	// (positive = under-estimated work charged late, negative = refunds).
	Corrections   uint64
	CorrectedCost int64

	// Gauges.
	QueuedPackets int64
	QueuedBytes   int64

	// EWMA service rates (bytes/s) as of the snapshot clock.
	RateBps   float64 // all service
	RateRTBps float64 // real-time criterion only

	// Distributions.
	DeadlineSlack HistogramSnapshot // ns; negative = missed deadlines
	QueueDelay    HistogramSnapshot // ns from Packet.Arrival (the enqueue clock unless the submitter set it) to dequeue
}

// SentPackets returns the total packets sent under both criteria.
func (c *ClassSnapshot) SentPackets() uint64 { return c.SentPacketsRT + c.SentPacketsLS }

// SentBytes returns the total bytes sent under both criteria.
func (c *ClassSnapshot) SentBytes() int64 { return c.SentBytesRT + c.SentBytesLS }

// Snapshot is a point-in-time copy of every tracked class plus the
// scheduler-level counters.
type Snapshot struct {
	// Now is the scheduler clock of the newest event folded in.
	Now int64
	// UlimitDefers counts dequeue attempts refused because every active
	// class was deferred by an upper-limit curve.
	UlimitDefers uint64
	// DropsUnknownClass / DropsBadPacket count packets refused before
	// reaching a leaf queue (admission drops).
	DropsUnknownClass uint64
	DropsBadPacket    uint64
	// DropsIntakeFull / DropsStopped count packets refused at a driver's
	// intake (PacedQueue.Submit): ring-buffer overflow and submits after
	// Stop. Like the admission drops they never reached a leaf queue.
	DropsIntakeFull uint64
	DropsStopped    uint64
	// SpansSampled counts packet-lifecycle spans folded into the
	// decomposition histograms below (1-in-N sampling; see Config.Spans).
	SpansSampled uint64
	// SpanIntakeWait / SpanQueueDelay decompose sampled packets'
	// end-to-end latency: submit → intake drain and enqueue → dequeue
	// (both ns). A packet is transmitted on the pacing pass that dequeues
	// it, so the two sum to submit → transmit.
	SpanIntakeWait HistogramSnapshot
	SpanQueueDelay HistogramSnapshot
	// FlightRecorded / FlightDropped are the flight recorder's cumulative
	// totals: records written, and records overwritten (ring wrap).
	FlightRecorded uint64
	FlightDropped  uint64
	// Audit is the online guarantee auditor's verdicts (nil unless
	// auditing is enabled — hfsc.Config.Audit). The scheduler attaches it
	// when the snapshot is taken; the aggregator itself never writes it.
	Audit *audit.Snapshot
	// Classes holds one entry per live class that has produced events, in
	// class id (creation) order. Removed classes are forgotten.
	Classes []ClassSnapshot
}

// Class returns the snapshot of the class with the given id.
func (s *Snapshot) Class(id int) (ClassSnapshot, bool) {
	for i := range s.Classes {
		if s.Classes[i].ID == id {
			return s.Classes[i], true
		}
	}
	return ClassSnapshot{}, false
}

// Snapshot copies the current state. Safe to call from any goroutine, in
// particular while the scheduling goroutine keeps feeding events.
//
// A snapshot costs three allocations whatever the class count: the
// Snapshot, one slab of class entries and one slab holding every
// histogram's counts.
func (a *Aggregator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	live, counts := 0, len(a.spanIntake.counts)+len(a.spanQueue.counts)
	for _, st := range a.classes {
		if st != nil {
			live++
			counts += st.countsLen()
		}
	}
	slab := make([]uint64, counts)
	out := &Snapshot{
		Now:               a.lastEvent,
		UlimitDefers:      a.ulimitDefers,
		DropsUnknownClass: a.dropUnknown,
		DropsBadPacket:    a.dropBadPkt,
		DropsIntakeFull:   a.dropIntakeFull,
		DropsStopped:      a.dropStopped,
		SpansSampled:      a.spansSampled,
		FlightRecorded:    a.flightRecorded,
		FlightDropped:     a.flightDropped,
	}
	out.SpanIntakeWait, slab = a.spanIntake.snapshotInto(slab)
	out.SpanQueueDelay, slab = a.spanQueue.snapshotInto(slab)
	if live == 0 {
		return out
	}
	out.Classes = make([]ClassSnapshot, 0, live)
	for _, st := range a.classes {
		if st == nil {
			continue
		}
		out.Classes = append(out.Classes, ClassSnapshot{})
		slab = a.snapClass(st, &out.Classes[len(out.Classes)-1], slab)
	}
	return out
}

// ClassSnapshot copies one class's current state (zero, false if the class
// has produced no events yet).
func (a *Aggregator) ClassSnapshot(id int) (ClassSnapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id < 0 || id >= len(a.classes) || a.classes[id] == nil {
		return ClassSnapshot{}, false
	}
	st := a.classes[id]
	var c ClassSnapshot
	a.snapClass(st, &c, make([]uint64, st.countsLen()))
	return c, true
}

// countsLen is how many histogram counts a snapshot of the class holds.
func (st *classState) countsLen() int { return len(st.counts) }

// snapClass copies st into c, carving the histogram counts off slab, and
// returns the rest of the slab.
func (a *Aggregator) snapClass(st *classState, c *ClassSnapshot, slab []uint64) []uint64 {
	*c = ClassSnapshot{
		ID:              st.id,
		Name:            st.name,
		Leaf:            st.leaf,
		EnqueuedPackets: st.enqPkts,
		EnqueuedBytes:   st.enqBytes,
		SentPacketsRT:   st.sentRTPkts,
		SentBytesRT:     st.sentRTBytes,
		SentPacketsLS:   st.sentLSPkts,
		SentBytesLS:     st.sentLSBytes,
		DropsQueueLimit: st.drops[core.DropQueueLimit],
		DeadlineMisses:  st.deadlineMiss,
		Activations:     st.activations,
		Corrections:     st.corrections,
		CorrectedCost:   st.correctedCost,
		QueuedPackets:   st.queuedPkts,
		QueuedBytes:     st.queuedBytes,
		RateBps:         st.rate.Rate(a.lastEvent),
		RateRTBps:       st.rateRT.Rate(a.lastEvent),
	}
	c.DeadlineSlack, slab = st.slack.snapshotInto(slab)
	c.QueueDelay, slab = st.qdelay.snapshotInto(slab)
	return slab
}
