package hfsc

import (
	"io"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/metrics"
)

// Snapshot is a point-in-time copy of the scheduler's metrics: per-class
// counters, queue gauges, EWMA service rates and the deadline-slack and
// queueing-delay histograms, plus scheduler-level admission-drop and
// upper-limit-deferral counters. Obtain one with Scheduler.Snapshot.
type Snapshot = metrics.Snapshot

// ClassSnapshot is one class's slice of a Snapshot.
type ClassSnapshot = metrics.ClassSnapshot

// HistogramSnapshot is an immutable fixed-bucket histogram (bounds in ns).
type HistogramSnapshot = metrics.HistogramSnapshot

// DropReason classifies why Offer refused a packet.
type DropReason = core.DropReason

// Drop reasons, re-exported from the core event stream so wrapper-level
// admission drops and core queue drops share one vocabulary.
const (
	// DropNone: the packet was accepted.
	DropNone = core.DropNone
	// DropQueueLimit: the leaf queue was full.
	DropQueueLimit = core.DropQueueLimit
	// DropUnknownClass: Packet.Class named no leaf class (unknown id,
	// interior class, or the root).
	DropUnknownClass = core.DropUnknownClass
	// DropBadPacket: the packet was nil or had a non-positive cost
	// (Packet.Work: Cost when set, else Len).
	DropBadPacket = core.DropBadPacket
	// DropIntakeFull: a PacedQueue intake shard was full (driver-level;
	// returned by PacedQueue.Submit, never by Offer).
	DropIntakeFull = core.DropIntakeFull
	// DropStopped: the PacedQueue was already stopped (driver-level).
	DropStopped = core.DropStopped
)

// Offer offers a packet at the given clock (ns) and reports exactly what
// happened: DropNone on acceptance, otherwise the reason the packet was
// refused. Unlike the core scheduler, which treats an unknown class as a
// programming error, Offer validates first — making it safe to feed from
// untrusted classification. When metrics are enabled every refusal is
// counted under its reason.
func (s *Scheduler) Offer(p *Packet, now int64) DropReason {
	r := s.offer(p, now)
	s.publish()
	return r
}

// offer is Offer without the publish, for the pacing loop's drain.
func (s *Scheduler) offer(p *Packet, now int64) DropReason {
	if p == nil || p.Work() <= 0 {
		if s.agg != nil {
			s.agg.CountDrop(core.DropBadPacket, now)
		}
		return DropBadPacket
	}
	cl := s.core.ClassByID(p.Class)
	if cl == nil || !cl.IsLeaf() || cl == s.core.Root() {
		if s.agg != nil {
			s.agg.CountDrop(core.DropUnknownClass, now)
		}
		return DropUnknownClass
	}
	if s.fast != nil {
		if !s.fast.Enqueue(p, now) {
			if s.stage != nil {
				s.stage.Trace(core.EvDrop, cl, p, now, int64(core.DropQueueLimit))
			}
			return DropQueueLimit
		}
		if p.Arrival == 0 {
			p.Arrival = now
		}
		if s.stage != nil {
			s.stage.Trace(core.EvEnqueue, cl, p, now, 0)
		}
		return DropNone
	}
	if !s.core.Enqueue(p, now) {
		return DropQueueLimit // the core traced the drop with its reason
	}
	return DropNone
}

// Snapshot copies the current metrics. It returns nil when the scheduler
// was created without Config.Metrics. Safe to call concurrently with the
// scheduling goroutine: it touches only the aggregator, never the
// scheduler's tree state.
func (s *Scheduler) Snapshot() *Snapshot {
	if s.agg == nil {
		return nil
	}
	s.syncFlight()
	snap := s.agg.Snapshot()
	if s.aud != nil {
		snap.Audit = s.aud.Snapshot()
	}
	return snap
}

// syncFlight publishes the flight recorder's cumulative totals into the
// aggregator so snapshots and /metrics report ring pressure. Monotone and
// idempotent, like the intake-drop sync.
func (s *Scheduler) syncFlight() {
	if s.agg == nil || s.rec == nil {
		return
	}
	s.agg.RecordFlight(s.rec.Recorded(), s.rec.Dropped(), 0)
}

// WriteMetrics renders the current metrics in the Prometheus text
// exposition format. It returns ErrMetricsDisabled when the scheduler was
// created without Config.Metrics. Like Snapshot, it is safe to call
// concurrently with scheduling.
func (s *Scheduler) WriteMetrics(w io.Writer) error {
	if s.agg == nil {
		return ErrMetricsDisabled
	}
	return metrics.WritePrometheus(w, s.Snapshot())
}

// Metrics returns this class's slice of the metrics snapshot. The zero
// ClassSnapshot is returned when metrics are disabled, the class has not
// produced any events yet, or it has been removed: RemoveClass (and idle
// collection, which calls it) forgets the class's metrics, so a scrape
// costs O(live classes) and a same-named class added later starts from
// zero under its new id.
func (c *Class) Metrics() ClassSnapshot {
	if c.sched.agg == nil {
		return ClassSnapshot{}
	}
	cs, _ := c.sched.agg.ClassSnapshot(c.c.ID())
	return cs
}
