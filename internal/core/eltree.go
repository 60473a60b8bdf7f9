package core

import (
	"fmt"
	"math"

	"github.com/netsched/hfsc/internal/rbtree"
)

// elAugTree is the eligible list: the backlogged leaf classes with
// real-time curves, answering the real-time criterion's query — among
// classes whose eligible time has passed, which has the smallest deadline?
//
// It is the first of the two structures the paper's Section V names: an
// augmented red-black tree keyed by (eligible time, id) whose nodes carry
// the minimum (deadline, id) pair of their subtree — Aug holds the
// deadline, Aug2 the id of the class achieving it — so minDeadline resolves
// ties in one descent instead of re-walking tied subtrees (with thousands
// of equal-rate classes the tie group can be the whole tree). Every query
// and update is O(log n).
type elAugTree struct {
	tree *rbtree.Tree[*hot]
}

func newElAugTree() *elAugTree {
	return &elAugTree{tree: rbtree.New(elLess, func(n *rbtree.Node[*hot]) {
		n.Aug, n.Aug2 = subtreeMinD(n)
	})}
}

// subtreeMinD is the augmentation: the minimum (deadline, id) over n and
// the (already augmented) subtrees of its children.
func subtreeMinD(n *rbtree.Node[*hot]) (int64, int64) {
	d, id := n.Item.d, int64(n.Item.id)
	if l := n.Left(); l != nil && (l.Aug < d || (l.Aug == d && l.Aug2 < id)) {
		d, id = l.Aug, l.Aug2
	}
	if r := n.Right(); r != nil && (r.Aug < d || (r.Aug == d && r.Aug2 < id)) {
		d, id = r.Aug, r.Aug2
	}
	return d, id
}

// insert adds a class (not currently in the list).
func (t *elAugTree) insert(h *hot) { h.elnode = t.tree.Insert(h) }

// remove takes the class out of the list.
func (t *elAugTree) remove(h *hot) {
	t.tree.Delete(h.elnode)
	h.elnode = nil
}

// update repositions the class after its e and/or d changed.
func (t *elAugTree) update(h *hot) {
	// e is the tree key. If the new eligible time still sorts between the
	// in-order neighbors the node can stay put, and only the min-deadline
	// augmentation on its root path needs recomputing (d changed too).
	n := h.elnode
	prev := t.tree.Prev(n)
	next := t.tree.Next(n)
	if (prev == nil || elLess(prev.Item, h)) && (next == nil || elLess(h, next.Item)) {
		t.tree.Update(n)
		return
	}
	// Reposition; Insert refreshes the augmentation along both paths.
	t.tree.Delete(n)
	h.elnode = t.tree.Insert(h)
}

// minDeadline finds the eligible (e <= now) class minimizing (deadline,
// id), or nil. One descent along the e <= now boundary collects the best
// (Aug, Aug2) pair among qualifying left subtrees and boundary nodes; if a
// subtree wins, a second descent chases the exact pair. O(log n)
// regardless of deadline ties.
func (t *elAugTree) minDeadline(now int64) *hot {
	var (
		bestD    int64 = math.MaxInt64
		bestID   int64 = math.MaxInt64
		bestNode *hot
		bestSub  *rbtree.Node[*hot]
	)
	// Every node on the qualifying side of the boundary contributes itself
	// and its entire left subtree.
	for n := t.tree.Root(); n != nil; {
		if n.Item.e <= now {
			if l := n.Left(); l != nil && (l.Aug < bestD || (l.Aug == bestD && l.Aug2 < bestID)) {
				bestD, bestID = l.Aug, l.Aug2
				bestSub = l
				bestNode = nil
			}
			if d, id := n.Item.d, int64(n.Item.id); d < bestD || (d == bestD && id < bestID) {
				bestD, bestID = d, id
				bestNode = n.Item
				bestSub = nil
			}
			n = n.Right()
		} else {
			n = n.Left()
		}
	}
	if bestNode != nil {
		return bestNode
	}
	if bestSub == nil {
		return nil
	}
	// Descend the winning subtree to the node achieving its (Aug, Aug2).
	// All of it qualifies (e <= now), so no boundary checks are needed,
	// and the id makes the target unique: a single chase path.
	n := bestSub
	for {
		if n.Item.d == bestD && int64(n.Item.id) == bestID {
			return n.Item
		}
		if l := n.Left(); l != nil && l.Aug == bestD && l.Aug2 == bestID {
			n = l
			continue
		}
		n = n.Right()
	}
}

// minE returns the smallest eligible time in the list.
func (t *elAugTree) minE() (int64, bool) {
	n := t.tree.Min()
	if n == nil {
		return 0, false
	}
	return n.Item.e, true
}

// verify checks the tree against its search invariants: every member's
// handle points at its own node, the in-order sequence is strictly
// increasing by (e, id), and each node's (Aug, Aug2) is the minimum
// (deadline, id) of its subtree, recomputed here bottom-up rather than
// trusted. It returns the node count.
func (t *elAugTree) verify() (int, error) {
	count := 0
	var prev *hot
	var walk func(n *rbtree.Node[*hot]) error
	walk = func(n *rbtree.Node[*hot]) error {
		if n == nil {
			return nil
		}
		if err := walk(n.Left()); err != nil {
			return err
		}
		h := n.Item
		count++
		if h.elnode != n {
			return fmt.Errorf("eligible tree: class %d handle does not point at its node", h.id)
		}
		if prev != nil && !elLess(prev, h) {
			return fmt.Errorf("eligible tree: class %d (e=%d) sorts after class %d (e=%d)", prev.id, prev.e, h.id, h.e)
		}
		prev = h
		if err := walk(n.Right()); err != nil {
			return err
		}
		if d, id := subtreeMinD(n); n.Aug != d || n.Aug2 != id {
			return fmt.Errorf("eligible tree: class %d augmentation (%d, %d), subtree min (%d, %d)", h.id, n.Aug, n.Aug2, d, id)
		}
		return nil
	}
	err := walk(t.tree.Root())
	return count, err
}
