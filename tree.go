package hfsc

import (
	"sort"
	"time"
)

// CurveJSON is a service curve in the tree snapshot: slope M1 (bytes/s)
// for the first D nanoseconds of a backlogged period, then M2.
type CurveJSON struct {
	M1 uint64 `json:"m1_bps"`
	D  int64  `json:"d_ns"`
	M2 uint64 `json:"m2_bps"`
}

func curveJSON(sc SC) *CurveJSON {
	if sc.IsZero() {
		return nil
	}
	return &CurveJSON{M1: sc.M1, D: sc.D, M2: sc.M2}
}

// TreeClass is one class's row in a tree snapshot: its configuration
// (curves, limits) plus the scheduler's live per-class state — virtual
// time, eligible/deadline/fit times, backlog and cumulative work — the
// quantities the paper's algorithms (Figs. 9-10) maintain per node.
type TreeClass struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // parent's id in the same snapshot; -1 at a root
	Leaf   bool   `json:"leaf"`

	RealTime   *CurveJSON `json:"real_time,omitempty"`
	LinkShare  *CurveJSON `json:"link_share,omitempty"`
	UpperLimit *CurveJSON `json:"upper_limit,omitempty"`

	// Link-sharing state.
	VirtualTime    int64 `json:"vt"`
	Active         bool  `json:"active"`
	ActiveChildren int   `json:"active_children,omitempty"`

	// Real-time state (leaves; meaningful while backlogged).
	Eligible     int64  `json:"eligible_ns,omitempty"`
	Deadline     int64  `json:"deadline_ns,omitempty"`
	Fit          *int64 `json:"fit_ns,omitempty"` // nil without an upper limit
	RTCumulative int64  `json:"rt_cumulative_bytes,omitempty"`

	// Work and backlog.
	TotalBytes     int64  `json:"total_bytes"`
	RealTimeBytes  int64  `json:"rt_bytes,omitempty"`
	LinkShareBytes int64  `json:"ls_bytes,omitempty"`
	SentPackets    uint64 `json:"sent_packets"`
	QueuedPackets  int    `json:"queued_packets"`
	QueuedBytes    int64  `json:"queued_bytes"`
	QueueLimit     int    `json:"queue_limit,omitempty"`
	Dropped        uint64 `json:"dropped"`
}

// TreeShard is one scheduler shard's class tree plus its pacing state.
type TreeShard struct {
	Shard   int         `json:"shard"`
	RateBps uint64      `json:"rate_bps"` // current pacing slice
	Classes []TreeClass `json:"classes"`  // root first, creation order
}

// TreeSnapshot is a full scheduler introspection dump: every shard's
// class tree with service-curve parameters and live virtual-time state.
// Serialize it as JSON for the /debug/hfsc/tree endpoint.
type TreeSnapshot struct {
	CapturedAt  int64       `json:"captured_at_ns"` // wall clock, ns
	LinkRateBps uint64      `json:"link_rate_bps"`
	Shards      []TreeShard `json:"shards"`
}

// treeClasses renders one scheduler's classes. remap translates a local
// class id to the snapshot's id space (identity for single schedulers);
// it never drops entries — every class including the root appears, roots
// with Parent = -1. Counters are Class.Stats's, so packets the BackendAuto
// fast path holds or has served are counted too.
func treeClasses(s *Scheduler, remap func(localID int) int) []TreeClass {
	root := s.core.Root()
	classes := s.core.Classes()
	out := make([]TreeClass, 0, len(classes))
	for _, c := range classes {
		st := s.classStats(c)
		tc := TreeClass{
			ID:             remap(c.ID()),
			Name:           c.Name(),
			Parent:         -1,
			Leaf:           c.IsLeaf(),
			RealTime:       curveJSON(c.RSC()),
			LinkShare:      curveJSON(c.FSC()),
			UpperLimit:     curveJSON(c.USC()),
			VirtualTime:    c.VirtualTime(),
			Active:         c.Active(),
			ActiveChildren: c.ActiveChildren(),
			RTCumulative:   c.RTCumulative(),
			TotalBytes:     st.TotalBytes,
			RealTimeBytes:  st.RealTimeBytes,
			LinkShareBytes: st.LinkShareBytes,
			SentPackets:    st.SentPackets,
			Dropped:        st.Dropped,
		}
		if p := c.Parent(); p != nil && c != root {
			tc.Parent = remap(p.ID())
		}
		if c.IsLeaf() {
			tc.Eligible = c.EligibleAt()
			tc.Deadline = c.DeadlineAt()
			tc.QueuedPackets = st.QueuedPackets
			tc.QueuedBytes = st.QueuedBytes
			tc.QueueLimit = c.QueueLimit()
		}
		if f, ok := c.FitAt(); ok {
			fit := f
			tc.Fit = &fit
		}
		out = append(out, tc)
	}
	return out
}

// DumpTree captures the full class tree with live scheduler state. The
// Scheduler is single-goroutine: call this only from the goroutine that
// drives it (or before Start / after Stop of a wrapping driver). Drivers
// that own the scheduler expose their own DumpTree doing this safely.
func (s *Scheduler) DumpTree() TreeSnapshot {
	return TreeSnapshot{
		CapturedAt:  Now(time.Now()),
		LinkRateBps: s.cfg.LinkRate,
		Shards: []TreeShard{{
			RateBps: s.cfg.LinkRate,
			Classes: treeClasses(s, func(id int) int { return id }),
		}},
	}
}

// DumpTree captures the class tree with live virtual-time state, safely
// while the queue runs: the snapshot is taken by the pacing goroutine
// between scheduling passes (see Inspect).
func (q *PacedQueue) DumpTree() TreeSnapshot {
	var classes []TreeClass
	q.Inspect(func(s *Scheduler) {
		classes = treeClasses(s, func(id int) int { return id })
	})
	return TreeSnapshot{
		CapturedAt:  Now(time.Now()),
		LinkRateBps: q.s.cfg.LinkRate,
		Shards: []TreeShard{{
			RateBps: q.Rate(),
			Classes: classes,
		}},
	}
}

// DumpTree captures every shard's class tree, each snapshotted by its own
// pacing goroutine (shards are inspected one after another, so the
// per-shard trees are internally consistent but not captured at one
// global instant). Class ids are translated to the MultiQueue's global id
// space; each shard's root keeps id -1 with Parent -1.
func (m *MultiQueue) DumpTree() TreeSnapshot {
	out := TreeSnapshot{
		CapturedAt:  Now(time.Now()),
		LinkRateBps: m.line,
		Shards:      make([]TreeShard, len(m.shards)),
	}
	for i, sh := range m.shards {
		var classes []TreeClass
		sh.q.Inspect(func(s *Scheduler) {
			classes = treeClasses(s, func(id int) int { return globalID(sh.globalOf, id) })
		})
		out.Shards[i] = TreeShard{Shard: i, RateBps: sh.q.Rate(), Classes: classes}
	}
	return out
}

// FlightRecorder returns one shard's event ring (nil when Config.Flight
// is off or the shard index is out of range). Records carry shard-local
// class ids; use FlightEvents for the merged global-id view.
func (m *MultiQueue) FlightRecorder(shard int) *FlightRecorder {
	if shard < 0 || shard >= len(m.shards) {
		return nil
	}
	return m.shards[shard].sched.rec
}

// FlightEvents snapshots every shard's flight recorder into one stream,
// appending to buf: class ids translated to the global id space (shard
// roots become -1), Shard filled in, and the merged result ordered by
// timestamp. Returns nil buf unchanged when Config.Flight is off. Safe
// from any goroutine while the shards run.
func (m *MultiQueue) FlightEvents(buf []FlightRecord) []FlightRecord {
	start := len(buf)
	for i, sh := range m.shards {
		rec := sh.sched.rec
		if rec == nil {
			continue
		}
		from := len(buf)
		buf = rec.Snapshot(buf)
		for j := from; j < len(buf); j++ {
			buf[j].Shard = int32(i)
		}
	}
	merged := buf[start:]
	if len(merged) == 0 {
		return buf
	}
	// Copied after the snapshots, so every recorded id is in the copy.
	ids := m.globalIDs()
	for j := range merged {
		merged[j].Class = int32(ids.of(int(merged[j].Shard), int(merged[j].Class)))
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].TS < merged[b].TS })
	return buf
}

// ClassName resolves a global class id to its name ("" for unknown or
// removed ids), matching the FlightEvents id space — handy as the name
// function for flight.WriteEvents/ToJSON. Lock-free.
func (m *MultiQueue) ClassName(id int) string {
	if mc := m.table.get(id); mc != nil {
		return mc.cl.Name()
	}
	return ""
}
