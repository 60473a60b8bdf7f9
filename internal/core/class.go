// Package core implements the hierarchical fair service curve (H-FSC)
// scheduler of Stoica, Zhang and Ng (SIGCOMM '97): the paper's primary
// contribution.
//
// Each class in the hierarchy carries up to three two-piece linear service
// curves:
//
//   - rsc, the real-time service curve (leaf classes only) — guaranteed by
//     the real-time criterion via per-packet eligible times and deadlines;
//   - fsc, the link-sharing (fair service) curve — drives the hierarchical
//     distribution of service via virtual times;
//   - usc, an optional upper-limit curve capping the total service a class
//     may receive (the extension present in the reference BSD/Linux
//     implementations of this algorithm), making the scheduler
//     non-work-conserving for capped classes.
//
// Scheduling follows the paper's two criteria: whenever some leaf has an
// eligible packet (current time ≥ its eligible time), the eligible packet
// with the smallest deadline is sent (real-time criterion, protecting all
// leaf guarantees); otherwise a top-down smallest-virtual-time walk over
// active classes picks the leaf to serve (link-sharing criterion).
package core

import (
	"unsafe"

	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/rbtree"
)

// hot is the per-class state touched on every enqueue and dequeue, split
// out of Class into index-addressed records owned by the scheduler's arena
// (see Scheduler.allocHot). Every container on the hot path — the parent's
// vt tree, the eligible list, the fit index — orders *hot rather than
// *Class, so tree comparisons and the selection walks touch only these
// densely packed lines and never chase into the cold Class (names, curve
// specs, child slices, statistics). The vt tree is intrusive: its links
// live in the record itself.
//
// The layout is three cache lines, grouped by access pattern:
//
//	line 1 — comparator fields: everything the tree orderings (vt, e, d, f)
//	         and the firstFit/minDeadline descents read;
//	line 2 — accounting updated by the service cascades (totals, periods,
//	         virtual-time watermarks), the back-pointer to the Class and
//	         the flags;
//	line 3 — container state: the vt-tree links and subtree min-fit, the
//	         other containers' handles (fit index, eligible list), and the
//	         leaf's per-criterion work counters, written on every dequeue.
//
// The size is asserted to be exactly three lines, so records never
// straddle line boundaries within a block.
type hot struct {
	// Line 1: selection state.
	vt      int64 // virtual time (virtual start of head packet)
	e       int64 // eligible time of the head packet
	d       int64 // deadline of the head packet
	f       int64 // effective fit time: max(myf, cfmin), or noFit
	myf     int64 // own fit time from the upper-limit curve, or noFit
	cfmin   int64 // min f among active children (parents), or noFit
	vtadj   int64 // monotonicity adjustment (see updateVF)
	id      int32 // class id, the deterministic tie-break everywhere
	nactive int32 // number of active children (for a leaf: 0/1)

	// Line 2: service accounting, backlog-period state and flags.
	total        int64  // bytes served under both criteria
	cumul        int64  // bytes served under the real-time criterion
	cvtmin       int64  // watermark: largest vt selected this period
	cvtoff       int64  // vt offset for the next backlog period
	parentPeriod uint64 // parent's period seen at last fresh activation
	period       uint64 // backlog-period sequence number
	cl           *Class // the cold half
	cvtminSet    bool   // whether any selection happened this period
	leaf         bool   // mirrors len(cl.child) == 0 for the minVT walk and Enqueue
	vred         bool   // vt-tree colour: red
	inVT         bool   // member of the parent's vt tree (active)
	_            [4]byte

	// Line 3: container state and leaf statistics.
	vl, vr, vp *hot               // links in the parent's vt tree (see vtTree)
	vaug       int64              // min f over this record's vt subtree
	fitnode    *rbtree.Node[*hot] // position in the scheduler's fit index
	elnode     *rbtree.Node[*hot] // position in the eligible list
	rtWork     int64              // bytes served by the real-time criterion
	lsWork     int64              // bytes served by the link-sharing criterion
}

// Compile-time assertions: hot is exactly three cache lines, and Class
// fits the 256-byte size class (a multiple of the line size, so the
// allocator hands out line-aligned objects).
const (
	_ = -(unsafe.Sizeof(hot{}) ^ 192)
	_ = uint(256 - unsafe.Sizeof(Class{}))
)

// Class is one node of the link-sharing hierarchy. Create classes with
// Scheduler.AddClass; all fields are managed by the scheduler. The state
// touched per packet lives in the hot record; Class keeps the identity,
// configuration, queue and statistics.
//
// The record is 256 bytes, four cache lines in the order the enqueue and
// dequeue cascades read them: line 1 holds what every ancestor level of a
// cascade touches (links, flags, the link-sharing spec, the children's vt
// tree, the upper-limit record), line 2 the virtual curve, the real-time
// record and the packet counter, lines 3–4 the queue; the name and the
// child slice, read only by configuration and diagnostics, close the
// record. The real-time curves
// (rsc with the eligible and deadline runtime curves) and the upper-limit
// curves (usc with its runtime curve) live in side records that only
// classes carrying those curves allocate — the paper keeps E and D for
// real-time leaves only.
type Class struct {
	// Line 1: cascade links and link-sharing configuration.
	parent                 *Class
	hot                    *hot
	vttree                 vtTree // state as a parent: the active children ordered by vt
	ul                     *ulState
	hasRSC, hasFSC, hasUSC bool
	id                     int32
	fsc                    curve.SC

	// Line 2: the virtual curve V (maps virtual time to total service,
	// refined at every activation with the Fig. 8 min-update), the
	// real-time side record and the packet counter.
	virtual curve.RTSC
	rt      *rtState
	sentPkt uint64

	// Lines 3–4: the leaf queue (leaf classes only).
	queue pktq.FIFO

	// Configuration and hierarchy, off the per-packet path.
	name     string
	child    []*Class
	curveGen uint64 // bumped by every SetCurves
	childIdx int32  // this class's slot in parent.child (O(1) removal)
	// surplus marks a class that lost a served child to RemoveClass: its
	// total then exceeds its children's sum by that child's service.
	surplus bool
}

// rtState is the real-time side record of a class with a real-time curve:
// its specification and the eligible and deadline runtime curves, refined
// at every activation with the Fig. 8 min-update.
type rtState struct {
	sc       curve.SC
	eligible curve.RTSC // E: bounds service claimable via the RT criterion
	deadline curve.RTSC // D: service the guarantees require over time
}

// deriveEligible sets E from D: equal for concave curves; for convex (or
// linear) ones the slope-m2 line through D's anchor (Section IV-B).
func (rt *rtState) deriveEligible() {
	rt.eligible = rt.deadline
	if rt.sc.M1 <= rt.sc.M2 {
		rt.eligible.Dx = 0
		rt.eligible.Dy = 0
	}
}

// ulState is the upper-limit side record of a class with an upper-limit
// curve: its specification and the runtime curve U capping total service.
type ulState struct {
	sc     curve.SC
	ulimit curve.RTSC
}

// setRSC installs the real-time curve sc, anchoring D and E at (x, y), or
// drops the real-time side record when sc is zero. An existing record is
// rewritten in place, so retuning allocates nothing.
func (c *Class) setRSC(sc curve.SC, x, y int64) {
	c.hasRSC = !sc.IsZero()
	if !c.hasRSC {
		c.rt = nil
		return
	}
	if c.rt == nil {
		c.rt = new(rtState)
	}
	c.rt.sc = sc
	c.rt.deadline.Init(sc, x, y)
	c.rt.deriveEligible()
}

// setUSC installs the upper-limit curve sc, anchoring U at (x, y), or
// drops the upper-limit side record when sc is zero.
func (c *Class) setUSC(sc curve.SC, x, y int64) {
	c.hasUSC = !sc.IsZero()
	if !c.hasUSC {
		c.ul = nil
		return
	}
	if c.ul == nil {
		c.ul = new(ulState)
	}
	c.ul.sc = sc
	c.ul.ulimit.Init(sc, x, y)
}

// ID returns the class's scheduler-assigned identifier, used as
// Packet.Class for leaves.
func (c *Class) ID() int { return int(c.id) }

// Name returns the class's configured name.
func (c *Class) Name() string { return c.name }

// Parent returns the parent class, or nil for the root.
func (c *Class) Parent() *Class { return c.parent }

// Children returns the class's children. The returned slice must not be
// modified. Sibling order is not meaningful — removal of a sibling may
// reorder it.
func (c *Class) Children() []*Class { return c.child }

// IsLeaf reports whether the class has no children.
func (c *Class) IsLeaf() bool { return len(c.child) == 0 }

// RSC returns the class's real-time service curve specification (zero if
// none).
func (c *Class) RSC() curve.SC {
	if c.rt == nil {
		return curve.SC{}
	}
	return c.rt.sc
}

// CurveGen returns the class's curve generation: it changes whenever
// SetCurves replaces the curves, so a reader can tell a retune from one
// integer compare instead of comparing the curves themselves.
func (c *Class) CurveGen() uint64 { return c.curveGen }

// FSC returns the class's link-sharing service curve specification.
func (c *Class) FSC() curve.SC { return c.fsc }

// USC returns the class's upper-limit service curve specification (zero if
// none).
func (c *Class) USC() curve.SC {
	if c.ul == nil {
		return curve.SC{}
	}
	return c.ul.sc
}

// Total returns the bytes this class (subtree) has been served in total.
func (c *Class) Total() int64 { return c.hot.total }

// RealTimeWork returns the bytes served to this leaf under the real-time
// criterion.
func (c *Class) RealTimeWork() int64 { return c.hot.rtWork }

// LinkShareWork returns the bytes served to this leaf under the
// link-sharing criterion.
func (c *Class) LinkShareWork() int64 { return c.hot.lsWork }

// VirtualTime returns the class's current virtual time (diagnostic; only
// meaningful relative to active siblings).
func (c *Class) VirtualTime() int64 { return c.hot.vt }

// SentPackets returns the number of packets this leaf has transmitted.
func (c *Class) SentPackets() uint64 { return c.sentPkt }

// QueueLen returns the number of packets queued at this leaf.
func (c *Class) QueueLen() int { return c.queue.Len() }

// SetQueueLimit bounds this leaf's queue in packets (0 = unbounded),
// overriding the scheduler's DefaultQueueLimit. Already-queued packets are
// unaffected; the limit applies to subsequent enqueues.
func (c *Class) SetQueueLimit(n int) { c.queue.PktLimit = n }

// QueueLimit returns the leaf's packet limit (0 = unbounded).
func (c *Class) QueueLimit() int { return c.queue.PktLimit }

// QueueBytes returns the bytes queued at this leaf.
func (c *Class) QueueBytes() int64 { return c.queue.Bytes() }

// Dropped returns the number of packets this leaf's queue has rejected.
func (c *Class) Dropped() uint64 { return c.queue.Dropped() }

// EligibleAt returns the leaf's current eligible time (diagnostic; stale
// once the head packet changes).
func (c *Class) EligibleAt() int64 { return c.hot.e }

// DeadlineAt returns the leaf's current real-time deadline (diagnostic).
func (c *Class) DeadlineAt() int64 { return c.hot.d }

// FitAt returns the class's upper-limit fit time, and false when no
// upper-limit curve constrains it.
func (c *Class) FitAt() (int64, bool) {
	if c.hot.f == noFit {
		return 0, false
	}
	return c.hot.f, true
}

// RTCumulative returns the bytes counted against this leaf's real-time
// curve (cumul in the paper's eligible/deadline computation).
func (c *Class) RTCumulative() int64 { return c.hot.cumul }

// ActiveChildren returns the number of currently active children of an
// interior class (always 0 for leaves).
func (c *Class) ActiveChildren() int { return int(c.hot.nactive) }

// Active reports whether the class is active (has a backlogged leaf in its
// subtree).
func (c *Class) Active() bool {
	if c.IsLeaf() {
		return c.queue.Len() > 0
	}
	return c.hot.nactive > 0
}

// fitLess orders the fit index by fit time.
func fitLess(a, b *hot) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.id < b.id
}

// elLess orders leaves by eligible time in the eligible tree.
func elLess(a, b *hot) bool {
	if a.e != b.e {
		return a.e < b.e
	}
	return a.id < b.id
}

// midpoint returns the midpoint of a and b without overflow.
func midpoint(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return a + (b-a)/2
}
