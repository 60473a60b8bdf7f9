package core

import (
	"fmt"

	"github.com/netsched/hfsc/internal/pktq"
)

// Correct reconciles a completed work item's actual cost with the estimate
// it was scheduled under. Request datapaths enqueue items with an estimated
// Cost; when the true cost is only known at completion (a request that ran
// shorter or longer than predicted), the difference between what the
// service curves were charged and what was really consumed would otherwise
// accumulate forever — a tenant with systematically pessimistic estimates
// would be punished with ever-later virtual times and deadlines, one with
// optimistic estimates would permanently steal service. Correct applies
// the signed difference (actual − estimated, in cost units) to the class
// at completion time, the analogue of the kube-apiserver fair-queueing
// filter's post-execution "additional latency" adjustment.
//
// crit says which criterion served the item (Packet.Crit after dequeue):
// real-time service adjusts the leaf's cumulative real-time work — moving
// the eligible/deadline anchors the same way real service does — while
// link-sharing service leaves cumul untouched, mirroring the
// nonpunishment rule in the dequeue path. Both adjust the total-work
// account along the ancestor path and recompute virtual times, so the
// link-sharing distribution sees actual, not estimated, service.
//
// The delta is clamped so no account goes negative: a class can never be
// credited for more work than it was ever charged. Correct returns the
// delta actually applied. Calling it with estimated == actual is a no-op.
// Like every scheduler method, Correct must run on the scheduling
// goroutine (drivers queue corrections to the pacing loop).
func (s *Scheduler) Correct(cl *Class, estimated, actual int64, crit pktq.Criterion, now int64) int64 {
	if cl == nil || !cl.IsLeaf() || cl == s.root {
		panic("core: correct on invalid class")
	}
	if cl.parent == nil {
		// The class was removed between the item's completion and the
		// correction draining (drivers apply corrections asynchronously);
		// there is no account left to reconcile.
		return 0
	}
	if estimated < 0 || actual < 0 {
		panic(fmt.Sprintf("core: correct with negative cost %d -> %d", estimated, actual))
	}
	delta := actual - estimated
	h := cl.hot
	// Never uncharge more than the class has on its books. Each leaf is
	// clamped at zero individually, and an interior total is the sum of
	// its children's totals (plus, after RemoveClass of a served child,
	// that child's service), so the whole hierarchy stays nonnegative.
	if delta < 0 {
		if -delta > h.total {
			delta = -h.total
		}
		if crit == pktq.ByRealTime && -delta > h.cumul {
			delta = -h.cumul
		}
		if crit == pktq.ByLinkShare && -delta > h.lsWork {
			delta = -h.lsWork
		}
	}
	if delta == 0 {
		return 0
	}

	// Charge the delta up the hierarchy exactly as updateVF charges
	// service: totals first (root included), then the virtual-time
	// recomputation for every active link-sharing ancestor, keeping the
	// interior-total and tree-order invariants intact.
	s.root.hot.total += delta
	for c := cl; c.parent != nil; c = c.parent {
		ch := c.hot
		ch.total += delta
		if !c.hasFSC || ch.nactive == 0 {
			continue
		}
		ph := c.parent.hot
		ch.vt = c.virtual.Y2X(ch.total) + ch.vtadj
		// Same watermark pull as updateVF: a class corrected downward may
		// not fall behind the selection watermark of the current period.
		if ph.cvtminSet && ch.vt < ph.cvtmin {
			ch.vtadj += ph.cvtmin - ch.vt
			ch.vt = ph.cvtmin
		}
		s.repositionVT(c)
		if c.hasUSC {
			ch.myf = c.ul.ulimit.Y2X(ch.total)
		}
		s.refreshF(c)
	}

	if crit == pktq.ByRealTime {
		h.rtWork += delta
		if cl.hasRSC {
			h.cumul += delta
			// A backlogged leaf sits in the eligible list keyed by curves
			// anchored on cumul; re-derive its eligible time and deadline
			// for the head item just as post-service updates do.
			if cl.queue.Len() > 0 {
				s.updateED(cl, cl.queue.Front().Work(), now)
			}
		}
	} else {
		h.lsWork += delta
	}

	s.trace(EvCorrect, cl, nil, now, delta)
	return delta
}
