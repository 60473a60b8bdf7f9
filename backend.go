package hfsc

import (
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/hls"
)

// BackendKind selects the scheduler datapath behind the public API. The
// H-FSC core is always present as the class registry — names, ids,
// templates, admission control and introspection are identical under
// either kind — but under BackendAuto the packet path (enqueue, selection,
// dequeue) runs on a hierarchical round-robin fast path while the
// hierarchy uses none of the guarantees only H-FSC carries. See README
// "Choosing a backend" and DESIGN.md §5i.
type BackendKind int

const (
	// BackendHFSC (the default) runs the H-FSC core datapath: real-time,
	// link-sharing and upper-limit curves, fully dynamic.
	BackendHFSC BackendKind = iota
	// BackendAuto picks the cheapest admissible datapath and re-picks as
	// the hierarchy changes: pure link-sharing hierarchies run the HLS
	// round-robin fast path; the moment a class with a real-time or
	// upper-limit curve exists, the H-FSC core takes over. Switches only
	// happen while no packets are queued; adding the first real-time
	// class while link-sharing traffic is in flight fails with
	// ErrBackendBusy (retry when the queue drains).
	BackendAuto
)

// String returns the kind's short name ("hfsc" or "auto").
func (k BackendKind) String() string {
	if k == BackendAuto {
		return "auto"
	}
	return "hfsc"
}

// Backend reports the datapath currently serving packets: "hls" while the
// BackendAuto fast path runs, "hfsc" otherwise.
func (s *Scheduler) Backend() string {
	if s.fast != nil {
		return "hls"
	}
	return "hfsc"
}

// needsCore reports whether a class's curves demand guarantees only the
// H-FSC core carries: a real-time or upper-limit curve.
func needsCore(rsc, usc curve.SC) bool { return !rsc.IsZero() || !usc.IsZero() }

// hlsWeight reduces a link-sharing curve to the fast path's fair-share
// weight: the long-term slope, falling back to the first segment's slope
// for one-piece curves that only set M1. hls refuses a zero weight.
func hlsWeight(fsc curve.SC) int64 {
	if fsc.M2 > 0 {
		return int64(fsc.M2)
	}
	return int64(fsc.M1)
}

// fastAddClass mirrors a freshly created core class into the fast path,
// rolling the core add back on refusal. A class the fast path cannot
// carry flips the scheduler onto the core, which is only admissible while
// no packets are queued.
func (s *Scheduler) fastAddClass(c *core.Class, parentID int, cfg ClassConfig) error {
	if s.fast == nil {
		return nil
	}
	if needsCore(cfg.RealTime, cfg.UpperLimit) {
		if s.fast.Backlog() > 0 {
			s.core.RemoveClass(c)
			return ErrBackendBusy
		}
		s.fast = nil // switch to the core datapath; nothing queued to move
		return nil
	}
	if err := addFast(s.fast, c.ID(), parentID, cfg.LinkShare, cfg.QueueLimit); err != nil {
		s.core.RemoveClass(c)
		return err
	}
	return nil
}

// addFast creates one class on the fast path.
func addFast(f *hls.Sched, id, parentID int, fsc curve.SC, qlimit int) error {
	if err := f.AddClass(id, parentID, hlsWeight(fsc)); err != nil {
		return err
	}
	if qlimit > 0 {
		f.SetQueueLimit(id, qlimit)
	}
	return nil
}

// fastSetCurves re-weights a class on the fast path; only the weight and
// the queue limit can move there.
func (s *Scheduler) fastSetCurves(id int, cfg ClassConfig) error {
	if err := s.fast.SetWeight(id, hlsWeight(cfg.LinkShare)); err != nil {
		return err
	}
	if cfg.QueueLimit > 0 {
		s.fast.SetQueueLimit(id, cfg.QueueLimit)
	}
	return nil
}

// autoResolve re-picks the datapath under BackendAuto after a hierarchy
// change. Switching is admissible only while nothing is queued: passive
// classes carry no datapath state (an idle period re-anchors the runtime
// curves on activation anyway), so the switch is a pointer swap plus, in
// the core→HLS direction, a replay of the registry into a fresh ring
// structure.
func (s *Scheduler) autoResolve() {
	if s.cfg.Backend != BackendAuto {
		return
	}
	if s.nonLS == 0 {
		if s.fast == nil && s.core.Backlog() == 0 {
			s.fast = s.rebuildFastPath()
		}
		return
	}
	if s.fast != nil && s.fast.Backlog() == 0 {
		s.fast = nil
	}
}

// rebuildFastPath replays the registry into a fresh HLS scheduler; the
// caller has verified the hierarchy is pure link-sharing and idle.
func (s *Scheduler) rebuildFastPath() *hls.Sched {
	f := hls.New(s.cfg.DefaultQueueLimit)
	for _, c := range s.core.Classes() {
		if c == s.core.Root() {
			continue
		}
		if err := addFast(f, c.ID(), c.Parent().ID(), c.FSC(), c.QueueLimit()); err != nil {
			// A registry class the fast path cannot host (should be
			// excluded by nonLS accounting): stay on the core.
			return nil
		}
	}
	return f
}

// countCurved tracks classes carrying curves beyond link-sharing, the
// quantity BackendAuto switches on.
func (s *Scheduler) countCurved(rsc, usc curve.SC, delta int) {
	if needsCore(rsc, usc) {
		s.nonLS += delta
	}
}

// correctByID is the id-addressed Correct shared by Scheduler.Correct and
// the PacedQueue correction drain: it resolves the class against the
// registry and routes the reconciliation to the core. The fast path
// absorbs corrections as a no-op: its round-robin schedule is not
// anchored on cumulative curves, so there is no account to fix.
func (s *Scheduler) correctByID(class int, estimated, actual int64, crit Criterion, now int64) int64 {
	cl := s.core.ClassByID(class)
	if cl == nil || !cl.IsLeaf() || cl == s.core.Root() {
		return 0
	}
	if estimated < 0 || actual < 0 || s.fast != nil {
		return 0
	}
	return s.core.Correct(cl, estimated, actual, crit, now)
}

// classStats reports a class's counters with the fast path's folded in,
// so totals stay meaningful and monotone across BackendAuto switches. As
// on the core, TotalBytes covers a class's whole subtree, while the
// per-criterion split is kept at leaves (all fast-path service is
// link-sharing work).
func (s *Scheduler) classStats(c *core.Class) ClassStats {
	st := ClassStats{
		TotalBytes:     c.Total(),
		RealTimeBytes:  c.RealTimeWork(),
		LinkShareBytes: c.LinkShareWork(),
		SentPackets:    c.SentPackets(),
		QueuedPackets:  c.QueueLen(),
		QueuedBytes:    c.QueueBytes(),
		Dropped:        c.Dropped(),
	}
	if s.fast != nil {
		if f, ok := s.fast.Stats(c.ID()); ok {
			st.QueuedPackets += f.Queued
			st.QueuedBytes += f.QueuedBytes
			st.SentPackets += f.Sent
			st.Dropped += f.Dropped
			st.TotalBytes += f.Work
			if c.IsLeaf() {
				st.LinkShareBytes += f.Work
			}
		}
	}
	return st
}
