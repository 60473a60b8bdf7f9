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

// DumpTree captures every shard's class tree with live virtual-time
// state, safely while the queue runs: each shard's tree is taken by its
// own pacing goroutine between scheduling passes (see Inspect), one shard
// after another, so each tree is internally consistent but the shards are
// not captured at one instant. Class ids are the queue's (see ClassID);
// with several shards each shard's root has id -1.
func (q *PacedQueue) DumpTree() TreeSnapshot {
	out := TreeSnapshot{
		CapturedAt:  Now(time.Now()),
		LinkRateBps: q.line,
		Shards:      make([]TreeShard, len(q.shards)),
	}
	for i, sh := range q.shards {
		var classes []TreeClass
		sh.inspect(func(s *Scheduler) {
			classes = treeClasses(s, func(id int) int { return q.globalID(i, id) })
		})
		out.Shards[i] = TreeShard{Shard: i, RateBps: sh.rate.Load(), Classes: classes}
	}
	return out
}

// FlightEvents snapshots every shard's flight recorder into one stream,
// appending to buf: class ids translated to the queue's (shard roots of a
// multi-shard queue become -1), Shard filled in, and the merged result
// ordered by timestamp. Returns buf unchanged when Config.Flight is off.
// Safe from any goroutine while the queue runs.
func (q *PacedQueue) FlightEvents(buf []FlightRecord) []FlightRecord {
	start := len(buf)
	for i, sh := range q.shards {
		rec := sh.s.rec
		if rec == nil {
			continue
		}
		from := len(buf)
		buf = rec.Snapshot(buf)
		for j := from; j < len(buf); j++ {
			buf[j].Shard = int32(i)
			buf[j].Class = int32(q.globalID(i, int(buf[j].Class)))
		}
	}
	if len(q.shards) > 1 {
		merged := buf[start:]
		sort.SliceStable(merged, func(a, b int) bool { return merged[a].TS < merged[b].TS })
	}
	return buf
}
