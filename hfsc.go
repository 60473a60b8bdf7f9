// Package hfsc is a Go implementation of the Hierarchical Fair Service
// Curve (H-FSC) link-sharing scheduler of Stoica, Zhang and Ng
// (SIGCOMM '97; IEEE/ACM ToN 8(2), 2000).
//
// H-FSC manages one link with a class hierarchy. Every class carries up to
// three two-piece linear service curves:
//
//   - a real-time curve (leaves only), guaranteed unconditionally via
//     per-packet eligible times and deadlines — this is what provides
//     guaranteed, *decoupled* delay and bandwidth (priority service);
//   - a link-sharing curve, which drives hierarchical fair distribution of
//     the remaining capacity via virtual times; and
//   - an optional upper-limit curve capping a class's total service.
//
// Basic usage:
//
//	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps})
//	video, _ := s.AddClass(nil, "video", hfsc.ClassConfig{
//		RealTime:  hfsc.ForRealTime(1500, 10*time.Millisecond, 2*hfsc.Mbps),
//		LinkShare: hfsc.Linear(2 * hfsc.Mbps),
//	})
//	if r := s.Offer(&hfsc.Packet{Len: 1500, Class: video.ID()}, now); r != hfsc.DropNone {
//		// refused: r says why (queue limit, unknown class, malformed item)
//	}
//	p := s.Dequeue(now)
//
// Offer is the submit surface. Multi-producer drivers submit through
// PacedQueue.Submit / SubmitN, which report the same DropReason values.
//
// # Dynamic classes
//
// The hierarchy is not static: classes can be added, removed and re-curved
// while the link runs (see AddClass, RemoveClass, SetCurves, and the
// name-addressed equivalents on PacedQueue). A ClassTemplate
// (Config.AutoClass or SetTemplate) goes further and manages leaves
// automatically: the first submit to an unknown class name creates the
// leaf from the template, and leaves idle past the template's grace period
// are garbage-collected on the pacing goroutine — no locks enter the
// scheduling hot path. See DESIGN.md §5h for the lifecycle state machine.
//
// # Concurrency model
//
// The Scheduler itself is single-goroutine by design, like a qdisc:
// callers serialize access. For multi-producer use, wrap it in a
// PacedQueue — its Submit is safe from any number of goroutines (packets
// land in sharded lock-free intake rings, drained in batches by the one
// pacing goroutine that owns the Scheduler) and reports a DropReason when
// a bounded intake shard overflows. NewMultiQueue builds the same queue
// over several independent Schedulers (shards), each a slice of the link.
// See examples/udpshaper for the datapath shape and DESIGN.md for the
// intake architecture.
package hfsc

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/flight"
	"github.com/netsched/hfsc/internal/hls"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/pktq"
)

// Rate units in bytes per second (curve slopes take bytes/s).
const (
	Bps  uint64 = 1           // 8 bits per second
	Kbps        = 125 * Bps   // 1 kilobit per second
	Mbps        = 1000 * Kbps // 1 megabit per second
	Gbps        = 1000 * Mbps // 1 gigabit per second
)

// Packet is the unit of scheduling — one work item. Set Len (or Cost, for
// non-packet work) and Class (a leaf class ID) before enqueueing. Arrival
// may be set too; an enqueue that finds it zero stamps its own clock
// there, so queueing-delay metrics run from Arrival either way. The
// scheduler fills Deadline and Crit on dequeue. The quantity charged
// against the service curves is Packet.Work: the explicit Cost when set,
// else the wire length Len — so packet datapaths are unchanged while
// request datapaths schedule estimated costs and reconcile at completion
// via Correct.
type Packet = pktq.Packet

// Criterion says which scheduling criterion released a work item
// (Packet.Crit): real-time or link-sharing.
type Criterion = pktq.Criterion

// Criterion values, re-exported for Correct callers.
const (
	// ByNone: the item has not been dequeued.
	ByNone = pktq.ByNone
	// ByRealTime: served under the real-time criterion.
	ByRealTime = pktq.ByRealTime
	// ByLinkShare: served under the link-sharing criterion.
	ByLinkShare = pktq.ByLinkShare
)

// SC is a two-piece linear service curve: slope M1 (bytes/s) for the first
// D nanoseconds of a backlogged period, slope M2 afterwards.
type SC = curve.SC

// Linear returns the one-piece curve with the given rate.
func Linear(rate uint64) SC { return curve.Linear(rate) }

// Curve returns the two-piece curve with first-segment slope m1 for d,
// then m2.
func Curve(m1 uint64, d time.Duration, m2 uint64) SC {
	return SC{M1: m1, D: d.Nanoseconds(), M2: m2}
}

// ForRealTime maps application-level requirements — the largest unit of
// work umax (bytes) that must be delivered within dmax, plus the session's
// average rate — onto a service curve per the paper's Fig. 7. Use the
// result as a class's RealTime curve to get a delay bound decoupled from
// the rate.
func ForRealTime(umax int, dmax time.Duration, rate uint64) (SC, error) {
	return curve.FromUMaxDmaxRate(int64(umax), dmax.Nanoseconds(), rate)
}

// ClassConfig bundles the curves of one class. Zero curves are "absent":
// interior classes need LinkShare; leaves need RealTime and/or LinkShare.
type ClassConfig struct {
	RealTime   SC
	LinkShare  SC
	UpperLimit SC
	// QueueLimit bounds this leaf's queue in packets; 0 uses the
	// scheduler default.
	QueueLimit int
}

// Config configures a Scheduler.
type Config struct {
	// LinkRate is the link capacity in bytes/s. It is used by admission
	// control and delay-bound computation; the link itself is driven by
	// whoever calls Dequeue.
	LinkRate uint64
	// DefaultQueueLimit bounds each leaf queue in packets (0 = unbounded).
	DefaultQueueLimit int
	// Metrics enables the always-on observability pipeline: per-class
	// counters, queue gauges, EWMA service rates and deadline-slack /
	// queueing-delay histograms, exposed via Snapshot, Class.Metrics and
	// WriteMetrics. The disabled path costs nothing beyond a nil check on
	// the scheduling fast path.
	Metrics bool
	// Flight enables the always-on flight recorder: a fixed-size ring
	// capturing every scheduler event (enqueue, drop, dequeue with slack,
	// activation, deferral, transmit) with timestamps and packet identity,
	// readable concurrently via FlightRecorder(). The write path is four
	// plain word stores per event, under one lock per staged batch —
	// cheap enough to leave on in production.
	Flight bool
	// FlightRecords sizes the recorder ring in records (rounded up to a
	// power of two; 0 = 4096). Ignored unless Flight is set.
	FlightRecords int
	// Audit enables the online guarantee auditor: a per-class monitor that
	// checks the service each class actually receives against its
	// real-time curve (fluid-SCED deadlines anchored at each busy-period
	// start), attributes every violation to a cause (non-conforming
	// arrivals, upper-limit deferral, drops, cost corrections, or genuine
	// scheduler lateness), and tracks SLO burn rates over 1s/30s/5m
	// windows. Read it via AuditSnapshot, Snapshot().Audit, the
	// hfsc_guarantee_* Prometheus families, or /debug/hfsc/audit in
	// examples/hfsc-serve. Like the flight recorder it is O(1) per event
	// and allocation-free in steady state — built to stay on in
	// production.
	Audit bool
	// Spans samples 1-in-N submitted packets for a full lifecycle span:
	// submit → intake drain → dequeue and transmit, decomposed into intake
	// wait and queueing delay histograms on the metrics snapshot (a packet
	// is transmitted on the pacing pass that dequeues it, so dequeue and
	// transmit share one clock). 0 disables sampling; it also requires
	// Metrics (the span histograms live on the aggregator) and a
	// PacedQueue driver (the stamping happens at Submit/Transmit).
	Spans int
	// AutoClass, when set, is the catch-all class template: the first
	// submit (or EnsureClass) naming an unknown class creates a leaf from
	// it, and leaves idle past its Grace are garbage-collected. Equivalent
	// to SetTemplate("", *AutoClass); prefix-scoped templates registered
	// with SetTemplate take precedence for names they match.
	AutoClass *ClassTemplate
	// Backend selects the scheduler datapath: BackendHFSC (the default)
	// always runs the H-FSC core; BackendAuto runs the HLS round-robin
	// fast path while no class has a real-time or upper-limit curve. The
	// class hierarchy, naming, templates and introspection are identical
	// either way — see the BackendKind constants and README "Choosing a
	// backend".
	Backend BackendKind
}

// Class is a node in the link-sharing hierarchy.
type Class struct {
	c     *core.Class
	sched *Scheduler
}

// ID returns the identifier to place in Packet.Class for leaf classes.
func (c *Class) ID() int { return c.c.ID() }

// Name returns the class name.
func (c *Class) Name() string { return c.c.Name() }

// Parent returns the parent class, or nil at the root.
func (c *Class) Parent() *Class { return c.sched.wrap(c.c.Parent()) }

// Children returns the class's children.
func (c *Class) Children() []*Class {
	kids := c.c.Children()
	out := make([]*Class, len(kids))
	for i, k := range kids {
		out[i] = c.sched.wrap(k)
	}
	return out
}

// IsLeaf reports whether the class has no children.
func (c *Class) IsLeaf() bool { return c.c.IsLeaf() }

// Stats reports the class's service counters. Under BackendAuto the fast
// path's counters are folded in, so the totals stay meaningful across
// datapath switches (all fast-path service is link-sharing work).
func (c *Class) Stats() ClassStats { return c.sched.classStats(c.c) }

// ClassStats is a snapshot of one class's counters.
type ClassStats struct {
	TotalBytes     int64
	RealTimeBytes  int64
	LinkShareBytes int64
	SentPackets    uint64
	QueuedPackets  int
	QueuedBytes    int64
	Dropped        uint64
}

// Scheduler is an H-FSC scheduler for one link.
type Scheduler struct {
	cfg  Config
	core *core.Scheduler
	agg  *metrics.Aggregator // nil unless Config.Metrics
	rec  *flight.Recorder    // nil unless Config.Flight
	aud  *audit.Auditor      // nil unless Config.Audit
	// root is the root class's handle; it has no entry in names.
	root *Class
	// tpls are the registered class templates (longest prefix wins); lc
	// tracks classes enrolled in idle collection. Owner-serialized like
	// all scheduling state.
	tpls []tplRule
	lc   map[int]*lcEntry
	// names is the one name index: class name → handle for every live
	// class but the root. The owner resolves names through it (Class,
	// EnsureClass, the AddClass duplicate check), handles are found from
	// their core class through it (wrap), and ClassID reads it lock-free
	// from submitter goroutines; it is the only cross-goroutine-readable
	// piece of Scheduler state.
	names sync.Map
	// fast is the HLS fast path; nil means the H-FSC core serves packets
	// directly (the default — and the zero-overhead path: no extra branch
	// state beyond one nil check). Under BackendAuto fast flips between an
	// HLS scheduler and nil as the hierarchy gains or loses classes it
	// cannot carry; nonLS counts those classes (real-time or upper-limit
	// curves present).
	fast  *hls.Sched
	nonLS int
	// stage is the one tracer the core (and the fast path) writes to, nil
	// when every sink is off: each event is one append to it, and publish
	// hands the staged batch to the enabled sinks. Every exported method
	// that can emit events publishes before it returns; the pacing loop
	// stages through the unexported variants and publishes once per pass.
	stage *core.Batch
	// onPlace, set when a PacedQueue owns this scheduler as a shard, is
	// told of each class joining (add) or leaving the shard: its real-time
	// guarantee (sup-rate) and whether it is top-level. The queue keeps
	// its placement floors with it.
	onPlace func(guarantee uint64, top, add bool)
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg}
	opts := core.Options{DefaultQueueLimit: cfg.DefaultQueueLimit}
	var sinks []core.Sink
	if cfg.Metrics {
		s.agg = metrics.NewAggregator()
		sinks = append(sinks, s.agg)
	}
	if cfg.Flight {
		s.rec = flight.New(cfg.FlightRecords)
		sinks = append(sinks, s.rec)
	}
	if cfg.Audit {
		s.aud = audit.New(cfg.LinkRate)
		sinks = append(sinks, s.aud)
	}
	if len(sinks) > 0 {
		s.stage = core.NewBatch(sinks...)
		opts.Tracer = s.stage
	}
	s.core = core.New(opts)
	s.root = &Class{c: s.core.Root(), sched: s}
	if cfg.Backend == BackendAuto {
		s.fast = hls.New(cfg.DefaultQueueLimit)
	}
	if cfg.AutoClass != nil {
		s.SetTemplate("", *cfg.AutoClass)
	}
	return s
}

// FlightRecord is one flight-recorder entry; see FlightRecorder.
type FlightRecord = flight.Record

// FlightEvent is the JSON wire form of a FlightRecord, as served by the
// /debug/hfsc/events endpoint in examples/hfsc-serve.
type FlightEvent = flight.EventJSON

// FlightRecorder is the event ring enabled by Config.Flight. Its read side
// (ReadSince, Snapshot, Recorded, Dropped) is safe from any goroutine,
// concurrently with scheduling: a reader copies under the ring's lock in
// short chunks, so it holds the writer back by at most one chunk copy.
type FlightRecorder = flight.Recorder

// FlightRecorder returns the scheduler's event ring, or nil when
// Config.Flight is off. Class ids in its records are this scheduler's
// local ids (use PacedQueue.FlightEvents for a queue's merged view).
func (s *Scheduler) FlightRecorder() *FlightRecorder { return s.rec }

// FlightEventJSON converts a flight record to its JSON wire form. nameFn,
// if non-nil, resolves a class id to a display name ("" to omit).
func FlightEventJSON(rec FlightRecord, nameFn func(class int32) string) FlightEvent {
	return flight.ToJSON(rec, nameFn)
}

// WriteFlightEvents writes records as JSON lines (one event per line) —
// the stream format produced by hfsc-replay/-sim -events.
func WriteFlightEvents(w io.Writer, recs []FlightRecord, nameFn func(class int32) string) error {
	return flight.WriteEvents(w, recs, nameFn)
}

// wrap returns the handle of a live core class (nil for nil): the root's
// own, or the one the name index holds under the class's name — names are
// unique among live classes, so that entry is this class's.
func (s *Scheduler) wrap(c *core.Class) *Class {
	if c == nil {
		return nil
	}
	if c == s.root.c {
		return s.root
	}
	return s.Class(c.Name())
}

// Root returns the implicit root class.
func (s *Scheduler) Root() *Class { return s.root }

// Class returns the class with the given name, or nil.
func (s *Scheduler) Class(name string) *Class {
	if v, ok := s.names.Load(name); ok {
		return v.(*Class)
	}
	return nil
}

// Classes returns every class in creation order, root first.
func (s *Scheduler) Classes() []*Class {
	cs := s.core.Classes()
	out := make([]*Class, len(cs))
	for i, c := range cs {
		out[i] = s.wrap(c)
	}
	return out
}

// AddClass creates a class under parent (nil = root). Names must be
// unique.
func (s *Scheduler) AddClass(parent *Class, name string, cfg ClassConfig) (*Class, error) {
	if _, dup := s.names.Load(name); dup {
		return nil, fmt.Errorf("%w %q", ErrDuplicateClass, name)
	}
	var pc *core.Class
	if parent != nil {
		pc = parent.c
	}
	c, err := s.core.AddClass(pc, name, cfg.RealTime, cfg.LinkShare, cfg.UpperLimit)
	if err != nil {
		return nil, err
	}
	pid := 0
	if pc != nil {
		pid = pc.ID()
	}
	if err := s.fastAddClass(c, pid, cfg); err != nil {
		return nil, err
	}
	if cfg.QueueLimit > 0 {
		c.SetQueueLimit(cfg.QueueLimit)
	}
	s.countCurved(cfg.RealTime, cfg.UpperLimit, +1)
	s.autoResolve()
	s.place(c, c.Parent(), true)
	w := &Class{c: c, sched: s}
	s.names.Store(name, w)
	return w, nil
}

// RemoveClass deletes a passive leaf class (dynamic reconfiguration, like
// tc class del). A parent left childless becomes a leaf again. Removing a
// class already removed returns ErrClassRemoved; a stale *Class held
// across RemoveClass can never displace a class later re-added under the
// same name (Class(name) keeps resolving to the live one).
//
// The class leaves Snapshot, AuditSnapshot and WriteMetrics with it; a
// same-named class added later gets a fresh id and counts from zero.
func (s *Scheduler) RemoveClass(cl *Class) error {
	if cl == nil {
		return ErrNilClass
	}
	if s.fast != nil {
		if st, ok := s.fast.Stats(cl.c.ID()); ok && st.Queued > 0 {
			return fmt.Errorf("%w %q", ErrClassBusy, cl.c.Name())
		}
	}
	parent := cl.c.Parent()
	if err := s.core.RemoveClass(cl.c); err != nil {
		return err
	}
	s.place(cl.c, parent, false)
	if s.fast != nil {
		s.fast.RemoveClass(cl.c.ID())
	}
	// Telemetry forgets the class before its name is released, so a reader
	// that sees the name gone sees its series gone too. Every removal path
	// (CollectIdle, the queues' admin routes, middleware eviction) comes
	// through here, and a removed class is passive: nothing in flight is
	// lost. Staged events are published first, so none of them re-creates
	// the forgotten state.
	s.publish()
	if s.agg != nil {
		s.agg.Forget(cl.c.ID())
	}
	if s.aud != nil {
		s.aud.Forget(cl.c.ID())
	}
	s.countCurved(cl.c.RSC(), cl.c.USC(), -1)
	s.autoResolve()
	// Drop the name binding only if it still points at this handle: a
	// same-named class re-added after an earlier removal owns the entry.
	s.names.CompareAndDelete(cl.c.Name(), cl)
	delete(s.lc, cl.c.ID())
	return nil
}

// SetCurves replaces a class's curves at the given clock (ns). Parameter
// changes apply live, even mid-backlog: the runtime curves are re-anchored
// at the class's cumulative work so no packet is dropped and conservation
// holds across the swap. Changing which curves are present (gaining or
// losing a real-time/link-share/upper-limit curve) still requires a
// passive class and fails with ErrClassBusy otherwise. A positive
// QueueLimit in cfg is applied too; zero leaves the limit unchanged.
func (s *Scheduler) SetCurves(cl *Class, cfg ClassConfig, now int64) error {
	if cl == nil {
		return ErrNilClass
	}
	switchToCore := s.fast != nil && needsCore(cfg.RealTime, cfg.UpperLimit)
	if switchToCore && s.fast.Backlog() > 0 {
		return ErrBackendBusy
	}
	// The class leaves its placement floor under its old guarantee and
	// rejoins under whatever curves it ends up with.
	s.place(cl.c, cl.c.Parent(), false)
	defer s.place(cl.c, cl.c.Parent(), true)
	oldRSC, oldFSC, oldUSC := cl.c.RSC(), cl.c.FSC(), cl.c.USC()
	if err := s.core.SetCurves(cl.c, cfg.RealTime, cfg.LinkShare, cfg.UpperLimit, now); err != nil {
		return err
	}
	if switchToCore {
		s.fast = nil // idle switch; registry classes are all passive here
	} else if s.fast != nil {
		if err := s.fastSetCurves(cl.c.ID(), cfg); err != nil {
			// Roll the registry back so both views stay consistent.
			s.core.SetCurves(cl.c, oldRSC, oldFSC, oldUSC, now)
			return err
		}
	}
	if cfg.QueueLimit > 0 {
		cl.c.SetQueueLimit(cfg.QueueLimit)
	}
	s.countCurved(oldRSC, oldUSC, -1)
	s.countCurved(cfg.RealTime, cfg.UpperLimit, +1)
	s.autoResolve()
	return nil
}

// Correct reconciles a completed work item's actual cost with the
// estimate it was scheduled under (see Packet.Cost): the signed
// difference is charged to — or refunded from — the class's service-curve
// accounts as if the item had been that size, clamped so no account goes
// negative. crit is the criterion that served the item (Packet.Crit after
// dequeue). It returns the delta actually applied, in cost units.
//
// Correct must be serialized with Offer/Dequeue like every Scheduler
// method; a driver-owned scheduler is corrected through PacedQueue.Correct,
// which queues the adjustment to the pacing goroutine instead. Correcting
// a removed class is a no-op.
func (s *Scheduler) Correct(cl *Class, estimated, actual int64, crit Criterion, now int64) int64 {
	if cl == nil {
		return 0
	}
	delta := s.correctByID(cl.c.ID(), estimated, actual, crit, now)
	s.publish()
	return delta
}

// Dequeue returns the next packet to send at the given clock, or nil.
func (s *Scheduler) Dequeue(now int64) *Packet {
	var p *Packet
	if s.fast != nil {
		p = s.fast.Dequeue(now)
		if p != nil && s.stage != nil {
			s.stage.Trace(core.EvDequeueLS, s.core.ClassByID(p.Class), p, now, 0)
		}
	} else {
		p = s.core.Dequeue(now)
	}
	s.publish()
	return p
}

// DequeueN dequeues up to max packets at the given clock, appending them to
// out (which may be nil) and returning the extended slice. It selects
// exactly what repeated Dequeue calls would, but lets a driver drain a
// burst in one call and reuse the output buffer across bursts, keeping the
// burst path allocation-free in steady state. It stops early when nothing
// more may be sent at now.
func (s *Scheduler) DequeueN(now int64, max int, out []*Packet) []*Packet {
	out = s.dequeueN(now, max, out)
	s.publish()
	return out
}

// dequeueN is DequeueN without the publish, for the pacing loop.
func (s *Scheduler) dequeueN(now int64, max int, out []*Packet) []*Packet {
	if s.fast != nil {
		start := len(out)
		out = s.fast.DequeueN(now, max, out)
		if s.stage != nil {
			for _, p := range out[start:] {
				s.stage.Trace(core.EvDequeueLS, s.core.ClassByID(p.Class), p, now, 0)
			}
		}
		return out
	}
	return s.core.DequeueN(now, max, out)
}

// publish hands the staged events to the enabled sinks (see stage). Only
// the goroutine that owns the scheduler may call it.
func (s *Scheduler) publish() {
	if s.stage != nil {
		s.stage.Publish()
	}
}

// NextReady reports when Dequeue may next succeed after returning nil with
// a backlog (e.g. under upper limits).
func (s *Scheduler) NextReady(now int64) (int64, bool) {
	if s.fast != nil {
		return s.fast.NextReady(now)
	}
	return s.core.NextReady(now)
}

// Backlog returns the number of queued packets.
func (s *Scheduler) Backlog() int {
	if s.fast != nil {
		return s.fast.Backlog()
	}
	return s.core.Backlog()
}

// Admissible verifies the SCED schedulability condition (Section II): the
// sum of all leaf real-time curves must lie below the link's curve;
// otherwise real-time guarantees cannot all hold. It returns nil when the
// configuration is admissible.
func (s *Scheduler) Admissible() error {
	if s.cfg.LinkRate == 0 {
		return fmt.Errorf("%w; cannot check admissibility", ErrNoLinkRate)
	}
	sum := curve.Curve{}
	for _, c := range s.core.Classes() {
		if c.IsLeaf() && !c.RSC().IsZero() {
			sum = sum.Add(curve.FromSC(c.RSC()))
		}
	}
	if !sum.LE(curve.LinearCurve(s.cfg.LinkRate)) {
		return fmt.Errorf("%w (%d B/s)", ErrInadmissible, s.cfg.LinkRate)
	}
	return nil
}

// DelayBound returns the worst-case queueing delay for a conforming burst
// of u bytes on a leaf with real-time curve rsc, per Theorems 1 and 2: the
// time for rsc to supply u bytes, plus the transmission time of one
// maximum-length packet (lmax bytes) at the link rate.
func (s *Scheduler) DelayBound(rsc SC, u int, lmax int) (time.Duration, error) {
	if s.cfg.LinkRate == 0 {
		return 0, ErrNoLinkRate
	}
	return delayBound(rsc, u, lmax, s.cfg.LinkRate)
}

// delayBound is the validated Theorem 1/2 computation shared by
// Scheduler.DelayBound and PacedQueue.DelayBound, after the caller has
// resolved the link rate.
func delayBound(rsc SC, u, lmax int, linkRate uint64) (time.Duration, error) {
	if rsc.D > 0 && rsc.M1 < rsc.M2 {
		return 0, fmt.Errorf("%w (m1=%d B/s < m2=%d B/s)", ErrNonConcaveCurve, rsc.M1, rsc.M2)
	}
	if u > lmax {
		return 0, fmt.Errorf("%w (u=%d, lmax=%d)", ErrUnitExceedsLMax, u, lmax)
	}
	t := curve.FromSC(rsc).Inverse(int64(u))
	if t == curve.Inf {
		return 0, fmt.Errorf("%w (%d bytes)", ErrCurveUnreachable, u)
	}
	slack := curve.FromSC(Linear(linkRate)).Inverse(int64(lmax))
	return time.Duration(t + slack), nil
}

// place reports a class joining or leaving the shard to the owning queue
// (see onPlace). parent is passed in because a removed class is already
// detached from the tree.
func (s *Scheduler) place(c, parent *core.Class, add bool) {
	if s.onPlace != nil {
		s.onPlace(supRate(c.RSC()), parent == s.core.Root(), add)
	}
}

// supRate returns the supremum of sc(t)/t for a two-piece linear curve —
// the conservative per-curve rate the shard floors account.
func supRate(sc SC) uint64 {
	return max(sc.M1, sc.M2)
}
