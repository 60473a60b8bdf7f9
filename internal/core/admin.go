package core

import (
	"fmt"

	"github.com/netsched/hfsc/internal/curve"
)

// RemoveClass deletes a passive leaf class from the hierarchy, mirroring
// the dynamic reconfiguration the production implementations of this
// algorithm support (tc class del). The class must have no children and an
// empty queue. Its identifier is retired (ClassByID returns nil) and is
// never reused — a queued correction or a stale packet aimed at a removed
// class can never land on a class created later. A parent left childless
// becomes a leaf and may carry traffic again if it has the curves to do
// so. The class's hot-arena slot is recycled onto a free list for the next
// AddClass, so sustained churn does not grow the arena; the stale *Class
// is re-pointed at the scheduler's shared removed-class record, so
// accessors held across the removal read zeros instead of another class's
// live state, and removal allocates nothing. Its curve specifications stay
// readable (RSC, FSC, USC).
func (s *Scheduler) RemoveClass(cl *Class) error {
	if cl == nil || cl == s.root {
		return fmt.Errorf("core: cannot remove the root class: %w", ErrRootClass)
	}
	if cl.parent == nil {
		return fmt.Errorf("core: class %q: %w", cl.name, ErrClassRemoved)
	}
	if !cl.IsLeaf() {
		return fmt.Errorf("core: class %q: %w", cl.name, ErrNotLeaf)
	}
	if cl.queue.Len() > 0 {
		return fmt.Errorf("core: class %q still has queued packets: %w", cl.name, ErrClassActive)
	}
	h := cl.hot
	if h.inVT || h.fitnode != nil || h.elnode != nil {
		return fmt.Errorf("core: class %q: %w", cl.name, ErrClassActive)
	}
	p := cl.parent
	// The parent keeps the removed class's service on its books (its
	// virtual time stays put), so its total no longer equals its
	// children's sum.
	if h.total > 0 {
		p.surplus = true
	}
	// Swap-remove by the stored slot index: sibling order carries no
	// scheduling meaning (all ordering lives in the vt tree), so the
	// last child can take the vacated slot and removal stays O(1) even
	// under a 100k-wide fanout.
	i, last := cl.childIdx, int32(len(p.child)-1)
	p.child[i] = p.child[last]
	p.child[i].childIdx = i
	p.child[last] = nil
	p.child = p.child[:last]
	if len(p.child) == 0 {
		p.hot.leaf = true
	}
	*h = s.removedHot
	s.freeHots = append(s.freeHots, h)
	cl.hot = &s.removedHot
	cl.sentPkt = 0
	s.classes[cl.id] = nil
	cl.parent = nil
	return nil
}

// SetCurves replaces a class's service curves, re-anchoring the runtime
// curves at the present time and the class's accumulated service (the
// behaviour of the reference implementations' class-change path).
// Constraints are as in AddClass: interior classes keep a link-sharing
// curve; leaves keep a real-time and/or link-sharing curve.
//
// Unlike the original passive-only path, parameter changes are applied
// live: on an active class the eligible time, deadline and fit time are
// re-derived from the class's cumulative work at the switch point, exactly
// as if the class had activated under the new curves with its service
// history intact — no packet is dropped and conservation holds across the
// swap. What cannot change while active is curve *presence* (which of the
// three curves are set): gaining or losing a curve flips tree memberships
// mid-backlog, so that still requires a passive class (ErrClassActive).
func (s *Scheduler) SetCurves(cl *Class, rsc, fsc, usc curve.SC, now int64) error {
	if cl == nil || cl == s.root {
		return fmt.Errorf("core: cannot set curves on the root class: %w", ErrRootClass)
	}
	if cl.parent == nil {
		return fmt.Errorf("core: class %q: %w", cl.name, ErrClassRemoved)
	}
	for _, sc := range []curve.SC{rsc, fsc, usc} {
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	if cl.IsLeaf() {
		if rsc.IsZero() && fsc.IsZero() {
			return fmt.Errorf("core: class %q needs a real-time or link-sharing curve", cl.name)
		}
	} else {
		if fsc.IsZero() {
			return fmt.Errorf("core: interior class %q needs a link-sharing curve", cl.name)
		}
		if !rsc.IsZero() {
			return fmt.Errorf("core: interior class %q cannot take a real-time curve", cl.name)
		}
	}
	active := cl.Active()
	if active && (cl.hasRSC != !rsc.IsZero() || cl.hasFSC != !fsc.IsZero() || cl.hasUSC != !usc.IsZero()) {
		return fmt.Errorf("core: class %q: curve presence can only change while passive: %w", cl.name, ErrClassActive)
	}
	h := cl.hot
	cl.curveGen++
	// Side records are created or dropped here when presence flips (only
	// on a passive class), and rewritten in place otherwise.
	cl.setRSC(rsc, now, h.cumul)
	cl.setUSC(usc, now, h.total)
	cl.fsc, cl.hasFSC = fsc, !fsc.IsZero()
	if cl.hasRSC && active { // only leaves carry a real-time curve
		s.updateED(cl, cl.queue.Front().Work(), now)
	}
	if cl.hasFSC {
		// Anchoring at (vt, total) leaves the class's virtual time — and so
		// its position in the parent's vt tree — unchanged; only the slope
		// ahead of the anchor moves.
		cl.virtual.Init(fsc, h.vt, h.total)
	}
	if active {
		if cl.hasUSC {
			h.myf = cl.ul.ulimit.Y2X(h.total)
		} else {
			h.myf = noFit
		}
		// The new fit time may loosen or tighten ancestors' cfmin chains;
		// refreshF no-ops at each level where nothing changed.
		for c := cl; c.parent != nil; c = c.parent {
			s.refreshF(c)
		}
	}
	return nil
}

// CheckInvariants walks the scheduler's internal state and reports the
// first inconsistency found; it returns nil when everything holds. It is
// exported for the randomized soak tests, which interleave it with
// traffic: catching structural corruption at the step that introduces it
// rather than at some later symptom.
func (s *Scheduler) CheckInvariants() error {
	backlog := 0
	fitMembers := 0
	var walk func(c *Class) (activeLeaves int, err error)
	walk = func(c *Class) (int, error) {
		// The side records exist exactly for the curves the class has.
		if (c.rt != nil) != c.hasRSC || (c.rt != nil && c.rt.sc.IsZero()) {
			return 0, fmt.Errorf("class %q real-time record present=%v but hasRSC=%v", c.name, c.rt != nil, c.hasRSC)
		}
		if (c.ul != nil) != c.hasUSC || (c.ul != nil && c.ul.sc.IsZero()) {
			return 0, fmt.Errorf("class %q upper-limit record present=%v but hasUSC=%v", c.name, c.ul != nil, c.hasUSC)
		}
		if c.IsLeaf() {
			backlog += c.queue.Len()
			active := 0
			if c.queue.Len() > 0 {
				active = 1
			}
			h := c.hot
			// The leaf flag mirrors the child slice for the minVT walk.
			if !h.leaf {
				return 0, fmt.Errorf("leaf %q has hot.leaf unset", c.name)
			}
			// A backlogged leaf with an rsc must be in the eligible list;
			// an idle one must not.
			inEl := h.elnode != nil
			if c.hasRSC && c != s.root {
				if active == 1 && !inEl {
					return 0, fmt.Errorf("backlogged rt leaf %q not in eligible list", c.name)
				}
				if active == 0 && inEl {
					return 0, fmt.Errorf("idle leaf %q still in eligible list", c.name)
				}
			}
			if c.hasFSC && c != s.root {
				if (active == 1) != h.inVT {
					return 0, fmt.Errorf("leaf %q active=%v but vttree membership=%v", c.name, active == 1, h.inVT)
				}
			}
			return active, nil
		}
		if c.hot.leaf {
			return 0, fmt.Errorf("interior %q has hot.leaf set", c.name)
		}
		activeChildren := 0
		minActiveF, anyActiveF := int64(noFit), false
		totalActiveLeaves := 0
		var childTotals int64
		for _, ch := range c.child {
			n, err := walk(ch)
			if err != nil {
				return 0, err
			}
			hc := ch.hot
			totalActiveLeaves += n
			childTotals += hc.total
			isActive := false
			if ch.IsLeaf() {
				isActive = ch.queue.Len() > 0
			} else {
				isActive = hc.nactive > 0
			}
			// A real-time-only leaf never takes part in link-sharing: it
			// is neither counted in nactive nor a vt-tree member.
			if ch.hasFSC || !ch.IsLeaf() {
				if hc.inVT != isActive {
					return 0, fmt.Errorf("class %q active=%v but vttree membership=%v", ch.name, isActive, hc.inVT)
				}
				if isActive {
					activeChildren++
					if !anyActiveF || hc.f < minActiveF {
						minActiveF, anyActiveF = hc.f, true
					}
				}
			}
			// The hot record must point back at its class (arena wiring).
			if hc.cl != ch || hc.id != ch.id {
				return 0, fmt.Errorf("class %q hot record mislinked (cl=%p id=%d)", ch.name, hc.cl, hc.id)
			}
			// The global fit index holds exactly the active classes with a
			// real fit time.
			wantFit := hc.inVT && hc.f != noFit
			if (hc.fitnode != nil) != wantFit {
				return 0, fmt.Errorf("class %q fit-index membership=%v want %v (f=%d)",
					ch.name, hc.fitnode != nil, wantFit, hc.f)
			}
			if hc.fitnode != nil {
				fitMembers++
			}
			// The effective fit time is max of own and children's minimum.
			wantF := hc.myf
			if hc.cfmin > wantF && hc.inVT {
				wantF = hc.cfmin
			}
			if hc.inVT && hc.f != wantF {
				return 0, fmt.Errorf("class %q f=%d want max(myf=%d, cfmin=%d)", ch.name, hc.f, hc.myf, hc.cfmin)
			}
		}
		if int(c.hot.nactive) != activeChildren {
			return 0, fmt.Errorf("class %q nactive=%d but %d active children", c.name, c.hot.nactive, activeChildren)
		}
		// An interior class's total equals the sum of its children's
		// totals (service is only ever charged through leaves). Removal
		// leaves the parent's account, and so its virtual time, untouched:
		// a class that lost a served child holds at least the sum.
		if c != s.root && c.hot.total != childTotals && (!c.surplus || c.hot.total < childTotals) {
			return 0, fmt.Errorf("class %q total %d vs children sum %d (surplus=%v)", c.name, c.hot.total, childTotals, c.surplus)
		}
		// cfmin is the minimum f over the active children, found here by a
		// linear scan rather than read off the tree (noFit when no active
		// child is constrained, or none is active).
		if c.hot.cfmin != minActiveF {
			return 0, fmt.Errorf("class %q cfmin %d != min f %d over active children", c.name, c.hot.cfmin, minActiveF)
		}
		// The vt tree's shape, links, order and min-fit augmentation
		// (firstFit's search invariant, and cfmin's source).
		if err := c.vttree.verify(c); err != nil {
			return 0, err
		}
		return totalActiveLeaves, nil
	}
	if _, err := walk(s.root); err != nil {
		return err
	}
	if backlog != s.backlog {
		return fmt.Errorf("backlog counter %d != queued packets %d", s.backlog, backlog)
	}
	if fitMembers != s.fittree.Len() {
		return fmt.Errorf("fit index holds %d classes, want %d", s.fittree.Len(), fitMembers)
	}
	// The eligible tree holds exactly the backlogged real-time leaves, in
	// (e, id) order, with a correct min-(d, id) augmentation (minDeadline's
	// search invariant).
	elMembers := 0
	s.eachRTBacklogged(func(*hot) { elMembers++ })
	n, err := s.el.verify()
	if err != nil {
		return err
	}
	if n != elMembers || s.el.tree.Len() != elMembers {
		return fmt.Errorf("eligible tree holds %d nodes (size %d), want %d backlogged rt leaves", n, s.el.tree.Len(), elMembers)
	}
	return nil
}
