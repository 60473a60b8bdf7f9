// Package rbtree implements an augmented red-black tree.
//
// The scheduler uses it for the augmented-tree eligible list (where the
// augmentation — the minimum packet deadline in each subtree — answers
// "eligible request with the smallest deadline" in O(log n), the structure
// attributed to [16] in the paper) and for its scheduler-wide index of
// upper-limit fit times; the packet fair queueing baselines use it for
// their per-node session orderings. The per-parent trees of active
// children ordered by virtual time, the hottest of the paper's Section V
// trees, are not built on it: internal/core keeps them intrusive in its
// per-class hot records, where the compare and the augmentation are
// direct code instead of calls through this tree's function values.
//
// Nodes are allocated by the tree but returned to callers, which keep them
// as handles for O(log n) deletion without a search. An optional Update
// callback maintains per-node augmented data; it is invoked bottom-up after
// every structural change touching a node's subtree.
//
// Deleted nodes are recycled on an internal free list, so a tree whose
// population churns in steady state (the scheduler's activation and
// reposition traffic) performs no allocations after its high-water mark.
// A handle passed to Delete is invalid afterwards and may be returned again
// by a later Insert.
package rbtree

// Node is a tree node holding one item of type T plus augmented data
// maintained by the tree's Update callback.
type Node[T any] struct {
	Item T
	// Aug is the augmented value for the subtree rooted at this node,
	// recomputed by the tree's Update callback. Its meaning is defined by
	// the caller (e.g. minimum deadline in subtree).
	Aug int64
	// Aug2 is an optional secondary augmented value maintained by the same
	// callback — typically the tie-break of the element achieving Aug
	// (e.g. the id of the minimum-deadline class), letting searches chase
	// an exact (Aug, Aug2) pair instead of re-walking tied subtrees.
	Aug2                int64
	left, right, parent *Node[T]
	red                 bool
}

// Left returns the left child, or nil.
func (n *Node[T]) Left() *Node[T] { return n.left }

// Right returns the right child, or nil.
func (n *Node[T]) Right() *Node[T] { return n.right }

// Tree is an augmented red-black tree ordered by the Less function.
// Duplicate keys are permitted (equal items order by insertion on the
// right). The zero Tree is not usable; construct with New.
type Tree[T any] struct {
	root *Node[T]
	size int
	less func(a, b T) bool
	// update recomputes n.Aug from n.Item and n's children. May be nil.
	update func(n *Node[T])
	// free is a singly linked list (through Node.right) of recycled nodes.
	free *Node[T]
}

// New returns a tree ordered by less. If update is non-nil it is called to
// (re)compute each node's augmented value whenever its subtree changes.
func New[T any](less func(a, b T) bool, update func(n *Node[T])) *Tree[T] {
	return &Tree[T]{less: less, update: update}
}

// Len returns the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

// Root returns the root node, or nil if the tree is empty. It is exposed
// for callers implementing custom augmented searches.
func (t *Tree[T]) Root() *Node[T] { return t.root }

// Min returns the node with the smallest item, or nil.
func (t *Tree[T]) Min() *Node[T] {
	n := t.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

// Next returns the in-order successor of n, or nil.
func (t *Tree[T]) Next(n *Node[T]) *Node[T] {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.right {
		n, p = p, p.parent
	}
	return p
}

// Prev returns the in-order predecessor of n, or nil.
func (t *Tree[T]) Prev(n *Node[T]) *Node[T] {
	if n.left != nil {
		n = n.left
		for n.right != nil {
			n = n.right
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.left {
		n, p = p, p.parent
	}
	return p
}

// fixAug recomputes augmented values from n up to the root.
func (t *Tree[T]) fixAug(n *Node[T]) {
	if t.update == nil {
		return
	}
	for ; n != nil; n = n.parent {
		t.update(n)
	}
}

func (t *Tree[T]) rotateLeft(x *Node[T]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	if t.update != nil {
		t.update(x)
		t.update(y)
	}
}

func (t *Tree[T]) rotateRight(x *Node[T]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	if t.update != nil {
		t.update(x)
		t.update(y)
	}
}

// newNode returns a node for item, reusing a recycled one when available.
func (t *Tree[T]) newNode(item T) *Node[T] {
	if z := t.free; z != nil {
		t.free = z.right
		z.Item = item
		z.Aug, z.Aug2 = 0, 0
		z.left, z.right, z.parent = nil, nil, nil
		z.red = true
		return z
	}
	return &Node[T]{Item: item, red: true}
}

// Insert adds item and returns its node handle.
func (t *Tree[T]) Insert(item T) *Node[T] {
	z := t.newNode(item)
	var y *Node[T]
	x := t.root
	for x != nil {
		y = x
		if t.less(item, x.Item) {
			x = x.left
		} else {
			x = x.right
		}
	}
	z.parent = y
	switch {
	case y == nil:
		t.root = z
	case t.less(item, y.Item):
		y.left = z
	default:
		y.right = z
	}
	t.size++
	t.fixAug(z)
	t.insertFixup(z)
	return z
}

func (t *Tree[T]) insertFixup(z *Node[T]) {
	for z.parent != nil && z.parent.red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.red {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.red = false
			gp.red = true
			t.rotateRight(gp)
		} else {
			u := gp.left
			if u != nil && u.red {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.red = false
			gp.red = true
			t.rotateLeft(gp)
		}
	}
	t.root.red = false
}

func (t *Tree[T]) transplant(u, v *Node[T]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

// Delete removes node z from the tree. The node must currently belong to
// this tree; afterwards its handle is invalid (the node is recycled and a
// later Insert may return it again).
func (t *Tree[T]) Delete(z *Node[T]) {
	t.size--
	y := z
	yWasRed := y.red
	var x, xParent *Node[T]
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		// y = successor of z (min of right subtree).
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yWasRed = y.red
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.red = z.red
	}
	// Recompute augmentation from the deepest structurally changed node.
	if xParent != nil {
		t.fixAug(xParent)
	} else if t.root != nil && t.update != nil {
		t.update(t.root)
	}
	if !yWasRed {
		t.deleteFixup(x, xParent)
	}
	var zero T
	z.Item = zero // release references held by the recycled node
	z.left, z.parent = nil, nil
	z.right = t.free
	t.free = z
}

func (t *Tree[T]) deleteFixup(x, parent *Node[T]) {
	for x != t.root && (x == nil || !x.red) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w.red {
				w.red = false
				parent.red = true
				t.rotateLeft(parent)
				w = parent.right
			}
			if (w.left == nil || !w.left.red) && (w.right == nil || !w.right.red) {
				w.red = true
				x = parent
				parent = x.parent
				continue
			}
			if w.right == nil || !w.right.red {
				w.left.red = false
				w.red = true
				t.rotateRight(w)
				w = parent.right
			}
			w.red = parent.red
			parent.red = false
			w.right.red = false
			t.rotateLeft(parent)
			x = t.root
			parent = nil
		} else {
			w := parent.left
			if w.red {
				w.red = false
				parent.red = true
				t.rotateRight(parent)
				w = parent.left
			}
			if (w.left == nil || !w.left.red) && (w.right == nil || !w.right.red) {
				w.red = true
				x = parent
				parent = x.parent
				continue
			}
			if w.left == nil || !w.left.red {
				w.right.red = false
				w.red = true
				t.rotateLeft(w)
				w = parent.left
			}
			w.red = parent.red
			parent.red = false
			w.left.red = false
			t.rotateRight(parent)
			x = t.root
			parent = nil
		}
	}
	if x != nil {
		x.red = false
	}
}

// Update reestablishes augmented values on the path from n to the root.
// Call it after mutating fields of n.Item that feed the augmentation but
// not the ordering. (If the ordering key changed, Delete and re-Insert.)
func (t *Tree[T]) Update(n *Node[T]) { t.fixAug(n) }

// Ascend calls fn on each item in ascending order until fn returns false.
func (t *Tree[T]) Ascend(fn func(item T) bool) {
	for n := t.Min(); n != nil; n = t.Next(n) {
		if !fn(n.Item) {
			return
		}
	}
}
