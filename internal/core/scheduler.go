package core

import (
	"fmt"
	"math"

	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/rbtree"
)

// VTPolicy selects how the system virtual time handed to a freshly
// activated class is derived from its active siblings. The paper argues for
// the mean of the minimum and maximum virtual start times (Section IV-C):
// anchoring at either extreme alone makes the discrepancy between sibling
// virtual times grow with the number of siblings. VTMin and VTMax exist for
// the ablation experiment that demonstrates this.
type VTPolicy uint8

const (
	// VTMean sets a fresh class's virtual time to (vmin+vmax)/2 — the
	// paper's choice.
	VTMean VTPolicy = iota
	// VTMin anchors at the minimum sibling virtual time.
	VTMin
	// VTMax anchors at the maximum sibling virtual time.
	VTMax
)

// Options configures a Scheduler. The zero value is a sensible default.
type Options struct {
	// VTPolicy is the system-virtual-time policy (default VTMean).
	VTPolicy VTPolicy
	// DefaultQueueLimit bounds each leaf queue in packets; 0 = unbounded.
	DefaultQueueLimit int
	// Tracer, if set, observes scheduler events synchronously.
	Tracer Tracer

	// refImpl switches the real-time selection, firstFit, NextReady and
	// the vt-tree repositioning to straightforward reference
	// implementations (linear scans over live classes, full
	// delete+reinsert). Selection must be bit-identical either way; the
	// golden-trace tests run both in lockstep. Test-only.
	refImpl bool
}

// noFit is the fit-time value of a class with no upper-limit constraint
// anywhere in its subtree: it fits at any time. Using an explicit sentinel
// (rather than 0) keeps a legitimate fit time of 0 at the clock origin
// distinct from "unconstrained", and keeps unconstrained classes out of
// NextReady's earliest-future-fit query.
const noFit = math.MinInt64

// hotBlockSize is the arena block granularity: blocks are allocated at
// fixed capacity and appended to in place, so &block[i] stays stable for
// the scheduler's lifetime (hot records are referenced by tree nodes and
// by each other's vt-tree links).
const hotBlockSize = 64

// Scheduler is the H-FSC packet scheduler over one link.
type Scheduler struct {
	opts    Options
	root    *Class
	classes []*Class
	el      *elAugTree
	backlog int
	// fittree indexes every active class with a real fit time (f != noFit)
	// by f, so NextReady answers "earliest fit time beyond now" with one
	// O(log n) successor query instead of walking all active classes.
	fittree *rbtree.Tree[*hot]
	// hotBlocks is the arena of hot records: fixed-capacity chunks, never
	// reallocated, handed out by allocHot in creation order. Flat,
	// index-adjacent records keep the tree comparisons and selection walks
	// on a handful of cache lines.
	hotBlocks [][]hot
	// freeHots recycles the arena slots of removed classes: sustained class
	// churn reuses slots instead of growing the arena without bound. Class
	// ids are never reused — only the backing records.
	freeHots []*hot
	// removedHot is the record every removed class points at, so accessors
	// on a stale *Class read zeros (and "no fit") rather than the state of
	// whichever class recycles its slot. Nothing writes it: every mutating
	// path refuses a removed class before touching its hot record.
	removedHot hot
}

// New creates a scheduler with an implicit root class.
func New(opts Options) *Scheduler {
	s := &Scheduler{opts: opts, el: newElAugTree()}
	s.removedHot = hot{leaf: true, myf: noFit, f: noFit, cfmin: noFit}
	s.fittree = rbtree.New[*hot](fitLess, nil)
	s.root = &Class{id: 0, name: "root"}
	s.root.hot = s.allocHot(s.root)
	s.classes = []*Class{s.root}
	return s
}

// allocHot hands out the next arena slot, initialized for cl.
func (s *Scheduler) allocHot(cl *Class) *hot {
	if n := len(s.hotBlocks); n == 0 || len(s.hotBlocks[n-1]) == cap(s.hotBlocks[n-1]) {
		s.hotBlocks = append(s.hotBlocks, make([]hot, 0, hotBlockSize))
	}
	bi := len(s.hotBlocks) - 1
	s.hotBlocks[bi] = append(s.hotBlocks[bi], hot{
		cl: cl, id: cl.id, leaf: true,
		myf: noFit, f: noFit, cfmin: noFit,
	})
	return &s.hotBlocks[bi][len(s.hotBlocks[bi])-1]
}

// Root returns the implicit root class.
func (s *Scheduler) Root() *Class { return s.root }

// Classes returns all live classes in creation order (root first);
// removed classes are excluded.
func (s *Scheduler) Classes() []*Class {
	out := make([]*Class, 0, len(s.classes))
	for _, c := range s.classes {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// ClassByID returns the class with the given id, or nil.
func (s *Scheduler) ClassByID(id int) *Class {
	if id < 0 || id >= len(s.classes) {
		return nil
	}
	return s.classes[id]
}

// AddClass creates a class under parent (nil means the root). Interior
// classes must carry a link-sharing curve; leaf classes need a real-time
// and/or a link-sharing curve. rsc on an interior class is rejected: the
// real-time criterion guarantees leaf curves only (the paper's fundamental
// architecture decision).
//
// The hierarchy must be fully built before packets are enqueued: a class
// that has carried traffic cannot gain children.
func (s *Scheduler) AddClass(parent *Class, name string, rsc, fsc, usc curve.SC) (*Class, error) {
	if parent == nil {
		parent = s.root
	}
	if parent != s.root && parent.parent == nil {
		return nil, fmt.Errorf("core: parent %q: %w", parent.name, ErrClassRemoved)
	}
	if parent != s.root {
		if !parent.hasFSC {
			return nil, fmt.Errorf("core: parent %q has no link-sharing curve", parent.name)
		}
		if parent.hasRSC {
			return nil, fmt.Errorf("core: class %q has a real-time curve and so must stay a leaf", parent.name)
		}
	}
	// A leaf that already carried traffic cannot become an interior class
	// (its queue and runtime-curve state would be orphaned); adding more
	// children to the root or to an existing interior is fine at any time.
	if parent != s.root && parent.IsLeaf() && (parent.queue.Len() > 0 || parent.hot.total > 0) {
		return nil, fmt.Errorf("core: cannot add children to class %q after it carried traffic", parent.name)
	}
	for _, sc := range []curve.SC{rsc, fsc, usc} {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	if rsc.IsZero() && fsc.IsZero() {
		return nil, fmt.Errorf("core: class %q needs a real-time or link-sharing curve", name)
	}
	if len(s.classes) > math.MaxInt32 {
		return nil, fmt.Errorf("core: class %q: class ids exhausted", name)
	}
	cl := &Class{
		id:     int32(len(s.classes)),
		name:   name,
		parent: parent,
		fsc:    fsc,
		hasFSC: !fsc.IsZero(),
	}
	if n := len(s.freeHots); n > 0 {
		h := s.freeHots[n-1]
		s.freeHots = s.freeHots[:n-1]
		h.cl, h.id = cl, cl.id
		cl.hot = h
	} else {
		cl.hot = s.allocHot(cl)
	}
	cl.queue.PktLimit = s.opts.DefaultQueueLimit
	// Seed the runtime curves from the specifications at the origin; every
	// later activation refines them with the Fig. 8 min-update, which
	// assumes slopes were established here.
	cl.setRSC(rsc, 0, 0)
	cl.setUSC(usc, 0, 0)
	if cl.hasFSC {
		cl.virtual.Init(fsc, 0, 0)
	}
	cl.childIdx = int32(len(parent.child))
	parent.child = append(parent.child, cl)
	parent.hot.leaf = false
	s.classes = append(s.classes, cl)
	return cl, nil
}

// Backlog returns the number of packets queued across all classes.
func (s *Scheduler) Backlog() int { return s.backlog }

// Enqueue implements sched.Scheduler.
func (s *Scheduler) Enqueue(p *pktq.Packet, now int64) bool {
	cl := s.ClassByID(p.Class)
	if cl == nil || !cl.hot.leaf || cl == s.root {
		panic(fmt.Sprintf("core: enqueue to invalid class %d", p.Class))
	}
	if p.Work() <= 0 {
		panic(fmt.Sprintf("core: work item with non-positive cost %d", p.Work()))
	}
	first := cl.queue.Len() == 0
	if !cl.queue.Push(p) {
		s.trace(EvDrop, cl, p, now, int64(DropQueueLimit))
		return false
	}
	if p.Arrival == 0 {
		p.Arrival = now
	}
	s.trace(EvEnqueue, cl, p, now, 0)
	s.backlog++
	if first {
		if cl.hasRSC {
			s.initED(cl, p.Work(), now)
		}
		if cl.hasFSC {
			s.initVF(cl, now)
		}
	}
	return true
}

// Dequeue implements sched.Scheduler: it applies the real-time criterion
// if any packet is eligible, else the link-sharing criterion.
func (s *Scheduler) Dequeue(now int64) *pktq.Packet {
	if s.backlog == 0 {
		return nil
	}
	return s.dequeueOne(now)
}

// DequeueN dequeues up to max packets at time now, appending them to out
// (which may be nil) and returning the extended slice. It is the batched
// form of Dequeue for burst draining — one call per link wakeup instead of
// one per packet, with the output buffer reused across bursts so the burst
// path allocates nothing in steady state. Selection is exactly the
// per-packet criteria: DequeueN(now, k, nil) yields the same packets in the
// same order as k consecutive Dequeue(now) calls. It stops early when the
// scheduler has nothing it may send at now.
func (s *Scheduler) DequeueN(now int64, max int, out []*pktq.Packet) []*pktq.Packet {
	for i := 0; i < max && s.backlog > 0; i++ {
		p := s.dequeueOne(now)
		if p == nil {
			break
		}
		out = append(out, p)
	}
	return out
}

// dequeueOne selects and releases one packet; the caller has checked the
// backlog.
func (s *Scheduler) dequeueOne(now int64) *pktq.Packet {
	realtime := false
	h := s.minDeadline(now)
	if h != nil {
		realtime = true
	} else {
		h = s.minVT(now)
		if h == nil {
			// Nothing fits (upper limits) or only future-eligible RT
			// traffic. If active link-sharing classes exist, the refusal is
			// an upper-limit deferral — an observable non-work-conserving
			// moment worth reporting.
			if s.opts.Tracer != nil && s.root.vttree.root != nil {
				f, _ := s.minFitAfter(now)
				s.trace(EvUlimitDefer, s.root, nil, now, f)
			}
			return nil
		}
	}
	cl := h.cl

	p := cl.queue.Pop()
	s.backlog--
	length := p.Work()
	if realtime {
		p.Crit = pktq.ByRealTime
		p.Deadline = h.d
		h.rtWork += length
		slack := h.d - now
		s.trace(EvDequeueRT, cl, p, now, slack)
		if slack < 0 {
			s.trace(EvDeadlineMiss, cl, p, now, slack)
		}
	} else {
		p.Crit = pktq.ByLinkShare
		h.lsWork += length
		s.trace(EvDequeueLS, cl, p, now, 0)
	}
	cl.sentPkt++

	s.updateVF(cl, length, now, cl.queue.Len() == 0)
	if realtime {
		h.cumul += length
	}

	if cl.queue.Len() > 0 {
		if cl.hasRSC {
			next := cl.queue.Front().Work()
			if realtime {
				s.updateED(cl, next, now)
			} else {
				s.updateD(cl, next, now)
			}
		}
	} else if cl.hasRSC {
		// The class went passive; the link-sharing side was detached by
		// updateVF's cascade.
		s.el.remove(h)
	}
	return p
}

// NextReady implements sched.Scheduler. When Dequeue returned nil despite
// backlog, the scheduler is waiting either for an eligible time (real-time
// only classes) or for an upper-limit fit time; the earliest of those is
// the retry time.
func (s *Scheduler) NextReady(now int64) (int64, bool) {
	if s.backlog == 0 {
		return 0, false
	}
	next := int64(math.MaxInt64)
	if e, ok := s.minE(); ok && e > now && e < next {
		next = e
	}
	if f, ok := s.minFitAfter(now); ok && f < next {
		next = f
	}
	if next == math.MaxInt64 {
		return 0, false
	}
	return next, true
}

// minDeadline implements the real-time criterion: the eligible (e <= now)
// class with the smallest (deadline, id), or nil — an O(log n) descent of
// the eligible tree.
func (s *Scheduler) minDeadline(now int64) *hot {
	if s.opts.refImpl {
		return s.minDeadlineRef(now)
	}
	return s.el.minDeadline(now)
}

// minE returns the smallest eligible time among the backlogged real-time
// leaves.
func (s *Scheduler) minE() (int64, bool) {
	if s.opts.refImpl {
		return s.minERef()
	}
	return s.el.minE()
}

// eachRTBacklogged calls fn for every live backlogged leaf with a
// real-time curve: the eligible list's membership, derived from the
// classes themselves rather than from the tree.
func (s *Scheduler) eachRTBacklogged(fn func(h *hot)) {
	for _, c := range s.classes {
		if c != nil && c.hasRSC && c.IsLeaf() && c.queue.Len() > 0 {
			fn(c.hot)
		}
	}
}

// minDeadlineRef is the linear-scan reference for minDeadline, independent
// of the eligible tree and its augmentation.
func (s *Scheduler) minDeadlineRef(now int64) *hot {
	var best *hot
	s.eachRTBacklogged(func(h *hot) {
		if h.e <= now && (best == nil || h.d < best.d || (h.d == best.d && h.id < best.id)) {
			best = h
		}
	})
	return best
}

// minERef is the linear-scan reference for minE.
func (s *Scheduler) minERef() (int64, bool) {
	best, found := int64(0), false
	s.eachRTBacklogged(func(h *hot) {
		if !found || h.e < best {
			best, found = h.e, true
		}
	})
	return best, found
}

// minFitAfter returns the earliest fit time strictly beyond now among all
// active upper-limit-constrained classes: a successor query on the global
// fit index, O(log n) in the number of active classes.
func (s *Scheduler) minFitAfter(now int64) (int64, bool) {
	if s.opts.refImpl {
		return s.minFitAfterRef(now)
	}
	best, found := int64(0), false
	for n := s.fittree.Root(); n != nil; {
		if n.Item.f > now {
			best, found = n.Item.f, true
			n = n.Left()
		} else {
			n = n.Right()
		}
	}
	return best, found
}

// minFitAfterRef is the pre-augmentation implementation: recursively walk
// every active class. Kept as the golden reference for minFitAfter.
func (s *Scheduler) minFitAfterRef(now int64) (int64, bool) {
	best, found := int64(math.MaxInt64), false
	var walk func(c *Class)
	walk = func(c *Class) {
		for ch := c.vttree.first(); ch != nil; ch = vtNext(ch) {
			if ch.f != noFit && ch.f > now && ch.f < best {
				best, found = ch.f, true
			}
			walk(ch.cl)
		}
	}
	walk(s.root)
	return best, found
}

// initED establishes the eligible and deadline curves when a leaf becomes
// active (the paper's Fig. 5(a) update_ed at activation).
func (s *Scheduler) initED(cl *Class, nextLen, now int64) {
	h, rt := cl.hot, cl.rt
	rt.deadline.Min(rt.sc, now, h.cumul)
	rt.deriveEligible()
	h.e = rt.eligible.Y2X(h.cumul)
	h.d = rt.deadline.Y2X(h.cumul + nextLen)
	s.el.insert(h)
}

// updateED recomputes the eligible time and deadline after real-time
// service.
func (s *Scheduler) updateED(cl *Class, nextLen, now int64) {
	h, rt := cl.hot, cl.rt
	h.e = rt.eligible.Y2X(h.cumul)
	h.d = rt.deadline.Y2X(h.cumul + nextLen)
	s.el.update(h)
}

// updateD recomputes only the deadline after link-sharing service: cumul
// did not change (the nonpunishment half of fairness — link-sharing service
// never pushes future deadlines out), but the new head packet may have a
// different length (the paper's Fig. 5(b)).
func (s *Scheduler) updateD(cl *Class, nextLen, now int64) {
	h := cl.hot
	h.d = cl.rt.deadline.Y2X(h.cumul + nextLen)
	s.el.update(h)
}

// initVF runs the activation cascade up the hierarchy (the paper's Fig. 6
// update_v on activation): each newly active class gets a virtual time
// derived from its siblings per the configured policy, its virtual curve
// min-updated at that point, and is inserted into its parent's trees.
func (s *Scheduler) initVF(cl *Class, now int64) {
	goActive := true
	for ; cl.parent != nil; cl = cl.parent {
		h := cl.hot
		if cl.parent == s.root && goActive && h.nactive == 0 {
			// The chain will newly activate this top-level class; count it
			// at the root too (diagnostics only — the root has no curves).
			s.root.hot.nactive++
		}
		if goActive {
			wasActive := h.nactive > 0
			h.nactive++
			goActive = false
			if !wasActive {
				goActive = true // propagate activation to the parent
				s.activate(cl, now)
			}
		}
		// Propagate upper-limit fit times regardless of activation.
		s.refreshF(cl)
	}
}

// activate performs the per-class part of the activation cascade.
func (s *Scheduler) activate(cl *Class, now int64) {
	p := cl.parent
	ph := p.hot
	h := cl.hot
	if maxH := p.vttree.last(); maxH != nil {
		// Siblings are active: derive the system virtual time.
		var vt int64
		switch s.opts.VTPolicy {
		case VTMin:
			vt = p.vttree.first().vt
		case VTMax:
			vt = maxH.vt
		default: // VTMean — the paper's (vmin+vmax)/2
			vt = maxH.vt
			if ph.cvtminSet {
				vt = midpoint(ph.cvtmin, vt)
			}
		}
		// Never move the class backwards within the same parent backlog
		// period: that would let it reclaim service it already used.
		if h.parentPeriod != ph.period || vt > h.vt {
			h.vt = vt
		}
	} else {
		// First child of a new parent backlog period: resume above every
		// virtual time reached in previous periods so vt stays monotone.
		h.vt = ph.cvtoff
		ph.cvtmin = 0
		ph.cvtminSet = false
		ph.period++
	}

	cl.virtual.Min(cl.fsc, h.vt, h.total)
	h.vtadj = 0
	h.parentPeriod = ph.period

	if cl.hasUSC {
		ul := cl.ul
		ul.ulimit.Min(ul.sc, now, h.total)
		h.myf = ul.ulimit.Y2X(h.total)
	} else {
		h.myf = noFit
	}
	// Children activated earlier in this cascade may already constrain us.
	h.f = h.myf
	if h.cfmin > h.f {
		h.f = h.cfmin
	}

	p.vttree.insert(h)
	ph.cfmin = p.vttree.minF()
	if h.f != noFit {
		h.fitnode = s.fittree.Insert(h)
	}
	s.trace(EvActivate, cl, nil, now, 0)
}

// updateVF charges length bytes of service up the hierarchy after a
// dequeue (the paper's Fig. 6 update_v on service): virtual times advance
// along the virtual curves, tree positions are refreshed, and classes whose
// subtrees drained go passive.
func (s *Scheduler) updateVF(cl *Class, length, now int64, leafEmptied bool) {
	goPassive := leafEmptied && cl.hasFSC
	s.root.hot.total += length
	for ; cl.parent != nil; cl = cl.parent {
		h := cl.hot
		if cl.parent == s.root && goPassive && h.nactive == 1 {
			// This top-level class is about to detach from the root's
			// trees; keep the root's diagnostic counter in step.
			s.root.hot.nactive--
		}
		h.total += length
		if !cl.hasFSC || h.nactive == 0 {
			continue
		}
		if goPassive {
			h.nactive--
			goPassive = h.nactive == 0
		}
		p := cl.parent
		ph := p.hot

		h.vt = cl.virtual.Y2X(h.total) + h.vtadj
		// A class served by the real-time criterion while not being the
		// virtual-time minimum can fall behind the selection watermark;
		// pull it forward so sibling order remains meaningful.
		if ph.cvtminSet && h.vt < ph.cvtmin {
			h.vtadj += ph.cvtmin - h.vt
			h.vt = ph.cvtmin
		}

		if goPassive {
			// Going passive: remember how far this class got so the next
			// backlog period resumes beyond it, then detach.
			if h.vt > ph.cvtoff {
				ph.cvtoff = h.vt
			}
			p.vttree.remove(h)
			ph.cfmin = p.vttree.minF()
			if h.fitnode != nil {
				s.fittree.Delete(h.fitnode)
				h.fitnode = nil
			}
			s.trace(EvPassive, cl, nil, now, 0)
			continue
		}

		s.repositionVT(cl)

		if cl.hasUSC {
			h.myf = cl.ul.ulimit.Y2X(h.total)
		}
		s.refreshF(cl)
	}
}

// repositionVT re-sorts cl in its parent's vt tree after cl's vt advanced.
// When the in-order neighbors still bracket the new virtual time — the
// common case in steady state, since all active siblings advance together —
// the record stays in place and no rebalancing happens at all (vt does not
// feed the tree's min-fit augmentation, so there is nothing to fix up).
// Removal and reinsertion keep the tree's membership, so cfmin holds.
func (s *Scheduler) repositionVT(cl *Class) {
	t := &cl.parent.vttree
	h := cl.hot
	if !s.opts.refImpl {
		prev, next := vtPrev(h), vtNext(h)
		if (prev == nil || prev.before(h)) && (next == nil || h.before(next)) {
			return
		}
	}
	t.remove(h)
	t.insert(h)
}

// refreshF recomputes a class's effective fit time from its own upper
// limit and its children's, refreshing the structures that index it: the
// parent's vt-tree min-fit augmentation (whose root value is the parent's
// cfmin) and the scheduler-wide fit index.
func (s *Scheduler) refreshF(cl *Class) {
	h := cl.hot
	f := h.myf
	if h.cfmin > f {
		f = h.cfmin
	}
	if f == h.f {
		return
	}
	h.f = f
	if !h.inVT {
		return
	}
	p := cl.parent
	p.vttree.fixF(h)
	p.hot.cfmin = p.vttree.minF()
	switch {
	case f == noFit:
		if h.fitnode != nil {
			s.fittree.Delete(h.fitnode)
			h.fitnode = nil
		}
	case h.fitnode == nil:
		h.fitnode = s.fittree.Insert(h)
	default:
		s.fittree.Delete(h.fitnode)
		h.fitnode = s.fittree.Insert(h)
	}
}

// minVT implements the link-sharing criterion: a top-down walk selecting at
// each level the active child with the smallest virtual time whose fit time
// has arrived. The walk reads only hot records (the leaf flag replaces the
// child-slice check), descending into the cold Class solely for the next
// level's vt tree.
func (s *Scheduler) minVT(now int64) *hot {
	cl := s.root
	h := cl.hot
	if h.cfmin > now {
		return nil
	}
	for !h.leaf {
		next := s.firstFit(cl, now)
		if next == nil {
			return nil
		}
		// Raise the selection watermark: newly activating siblings must
		// not start behind classes already selected this period.
		if !h.cvtminSet || next.vt > h.cvtmin {
			h.cvtmin = next.vt
			h.cvtminSet = true
		}
		h = next
		cl = next.cl
	}
	return h
}

// firstFit returns the active child with the smallest virtual time among
// those whose fit time has arrived, by descending the vt tree guided by
// the subtree-minimum fit-time augmentation: if the left subtree contains
// any fitting class, the in-order first one is there; else the current
// node, else the right subtree. One root-to-leaf walk, O(log n), versus
// the linear in-order scan of the reference implementation whenever upper
// limits defer the low-vt siblings.
func (s *Scheduler) firstFit(p *Class, now int64) *hot {
	if s.opts.refImpl {
		return firstFitRef(p, now)
	}
	n := p.vttree.root
	if n == nil || n.vaug > now {
		return nil
	}
	for {
		if l := n.vl; l != nil && l.vaug <= now {
			n = l
			continue
		}
		if n.f <= now {
			return n
		}
		// The augmentation promised a fit in this subtree but neither the
		// left side nor the node itself provides it: it is on the right.
		n = n.vr
	}
}

// firstFitRef is the pre-augmentation linear scan, kept as the golden
// reference for firstFit.
func firstFitRef(p *Class, now int64) *hot {
	for h := p.vttree.first(); h != nil; h = vtNext(h) {
		if h.f <= now {
			return h
		}
	}
	return nil
}
