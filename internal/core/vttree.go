package core

import (
	"fmt"
	"math"
)

// vtTree is a parent's set of active children ordered by (vt, id): the
// per-parent virtual-time tree of the paper's Section V. It is an
// intrusive red-black tree specialised to *hot — the links (vl, vr, vp),
// the colour (vred) and the membership bit (inVT) live in the children's
// hot records, so ordering and augmentation are direct field accesses and
// insertion or removal allocates nothing.
//
// Each member's vaug holds the minimum effective fit time f over its
// subtree. firstFit descends by it to the smallest-vt child whose fit
// time has arrived, and the root's vaug is the parent's cfmin: the
// minimum f over all its active children.
//
// The member count is not kept here: it is the owner's hot.nactive.
type vtTree struct {
	root *hot
}

// before orders active siblings by virtual time, breaking ties by id so
// the order is deterministic.
func (a *hot) before(b *hot) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.id < b.id
}

// pull recomputes h.vaug from h.f and its children's vaug, reporting
// whether the value changed.
func (h *hot) pull() bool {
	m := h.f
	if l := h.vl; l != nil && l.vaug < m {
		m = l.vaug
	}
	if r := h.vr; r != nil && r.vaug < m {
		m = r.vaug
	}
	if m == h.vaug {
		return false
	}
	h.vaug = m
	return true
}

// minF returns the minimum f over all members, or noFit when empty.
func (t *vtTree) minF() int64 {
	if t.root == nil {
		return noFit
	}
	return t.root.vaug
}

// first returns the member with the smallest (vt, id), or nil.
func (t *vtTree) first() *hot {
	n := t.root
	if n == nil {
		return nil
	}
	for n.vl != nil {
		n = n.vl
	}
	return n
}

// last returns the member with the largest (vt, id), or nil.
func (t *vtTree) last() *hot {
	n := t.root
	if n == nil {
		return nil
	}
	for n.vr != nil {
		n = n.vr
	}
	return n
}

// vtNext returns the in-order successor of member n, or nil.
func vtNext(n *hot) *hot {
	if n.vr != nil {
		n = n.vr
		for n.vl != nil {
			n = n.vl
		}
		return n
	}
	p := n.vp
	for p != nil && n == p.vr {
		n, p = p, p.vp
	}
	return p
}

// vtPrev returns the in-order predecessor of member n, or nil.
func vtPrev(n *hot) *hot {
	if n.vl != nil {
		n = n.vl
		for n.vr != nil {
			n = n.vr
		}
		return n
	}
	p := n.vp
	for p != nil && n == p.vl {
		n, p = p, p.vp
	}
	return p
}

// fixF re-establishes vaug on the path from member h to the root after
// h.f changed. A pure value change can only move the minima of h's
// ancestors, so the walk stops at the first one whose vaug holds.
func (t *vtTree) fixF(h *hot) {
	for n := h; n != nil && n.pull(); n = n.vp {
	}
}

// replaceChild points the link that held old (p's child, or the root
// when p is nil) at n.
func (t *vtTree) replaceChild(p, old, n *hot) {
	switch {
	case p == nil:
		t.root = n
	case p.vl == old:
		p.vl = n
	default:
		p.vr = n
	}
}

func (t *vtTree) rotateLeft(x *hot) {
	y := x.vr
	x.vr = y.vl
	if y.vl != nil {
		y.vl.vp = x
	}
	y.vp = x.vp
	t.replaceChild(x.vp, x, y)
	y.vl = x
	x.vp = y
	// y's subtree is x's old one, so y takes x's old minimum; x lost
	// y's right subtree and must be recomputed.
	y.vaug = x.vaug
	x.pull()
}

func (t *vtTree) rotateRight(x *hot) {
	y := x.vl
	x.vl = y.vr
	if y.vr != nil {
		y.vr.vp = x
	}
	y.vp = x.vp
	t.replaceChild(x.vp, x, y)
	y.vr = x
	x.vp = y
	y.vaug = x.vaug
	x.pull()
}

// insert links h into the tree. h must not be a member.
func (t *vtTree) insert(h *hot) {
	var p *hot
	left := false
	for x := t.root; x != nil; {
		p = x
		left = h.before(x)
		if left {
			x = x.vl
		} else {
			x = x.vr
		}
	}
	h.vl, h.vr, h.vp = nil, nil, p
	h.vred, h.inVT = true, true
	h.vaug = h.f
	switch {
	case p == nil:
		t.root = h
	case left:
		p.vl = h
	default:
		p.vr = h
	}
	// Adding h can only lower its ancestors' minima, and only while h.f
	// is below them.
	for a := p; a != nil && h.f < a.vaug; a = a.vp {
		a.vaug = h.f
	}
	t.insertFixup(h)
}

func (t *vtTree) insertFixup(z *hot) {
	for z.vp != nil && z.vp.vred {
		gp := z.vp.vp
		if z.vp == gp.vl {
			if u := gp.vr; u != nil && u.vred {
				z.vp.vred = false
				u.vred = false
				gp.vred = true
				z = gp
				continue
			}
			if z == z.vp.vr {
				z = z.vp
				t.rotateLeft(z)
			}
			z.vp.vred = false
			gp.vred = true
			t.rotateRight(gp)
		} else {
			if u := gp.vl; u != nil && u.vred {
				z.vp.vred = false
				u.vred = false
				gp.vred = true
				z = gp
				continue
			}
			if z == z.vp.vl {
				z = z.vp
				t.rotateRight(z)
			}
			z.vp.vred = false
			gp.vred = true
			t.rotateLeft(gp)
		}
	}
	t.root.vred = false
}

// transplant puts v (possibly nil) in u's place under u's parent.
func (t *vtTree) transplant(u, v *hot) {
	t.replaceChild(u.vp, u, v)
	if v != nil {
		v.vp = u.vp
	}
}

// remove unlinks member z from the tree.
func (t *vtTree) remove(z *hot) {
	y := z
	yWasRed := y.vred
	var x, xParent *hot
	switch {
	case z.vl == nil:
		x, xParent = z.vr, z.vp
		t.transplant(z, z.vr)
	case z.vr == nil:
		x, xParent = z.vl, z.vp
		t.transplant(z, z.vl)
	default:
		// y = successor of z (min of the right subtree) takes z's place.
		y = z.vr
		for y.vl != nil {
			y = y.vl
		}
		yWasRed = y.vred
		x = y.vr
		if y.vp == z {
			xParent = y
		} else {
			xParent = y.vp
			t.transplant(y, y.vr)
			y.vr = z.vr
			y.vr.vp = y
		}
		t.transplant(z, y)
		y.vl = z.vl
		y.vl.vp = y
		y.vred = z.vred
	}
	// Every node whose subtree lost a member (z, and y from its old
	// position) lies on the path from xParent to the root.
	for a := xParent; a != nil; a = a.vp {
		a.pull()
	}
	if !yWasRed {
		t.deleteFixup(x, xParent)
	}
	z.vl, z.vr, z.vp = nil, nil, nil
	z.inVT = false
}

func (t *vtTree) deleteFixup(x, parent *hot) {
	for x != t.root && (x == nil || !x.vred) {
		if parent == nil {
			break
		}
		if x == parent.vl {
			w := parent.vr
			if w.vred {
				w.vred = false
				parent.vred = true
				t.rotateLeft(parent)
				w = parent.vr
			}
			if (w.vl == nil || !w.vl.vred) && (w.vr == nil || !w.vr.vred) {
				w.vred = true
				x = parent
				parent = x.vp
				continue
			}
			if w.vr == nil || !w.vr.vred {
				w.vl.vred = false
				w.vred = true
				t.rotateRight(w)
				w = parent.vr
			}
			w.vred = parent.vred
			parent.vred = false
			w.vr.vred = false
			t.rotateLeft(parent)
			x = t.root
			parent = nil
		} else {
			w := parent.vl
			if w.vred {
				w.vred = false
				parent.vred = true
				t.rotateRight(parent)
				w = parent.vl
			}
			if (w.vl == nil || !w.vl.vred) && (w.vr == nil || !w.vr.vred) {
				w.vred = true
				x = parent
				parent = x.vp
				continue
			}
			if w.vl == nil || !w.vl.vred {
				w.vr.vred = false
				w.vred = true
				t.rotateLeft(w)
				w = parent.vl
			}
			w.vred = parent.vred
			parent.vred = false
			w.vl.vred = false
			t.rotateRight(parent)
			x = t.root
			parent = nil
		}
	}
	if x != nil {
		x.vred = false
	}
}

// verify checks the tree from scratch for CheckInvariants: red-black shape
// (black root, no red-red edge, equal black height on every path),
// consistent parent links, strictly increasing (vt, id) in order, members
// that are flagged inVT and are children of owner, a member count equal
// to n, and every vaug equal to its subtree's minimum f.
func (t *vtTree) verify(owner *Class) error {
	if t.root != nil && (t.root.vred || t.root.vp != nil) {
		return fmt.Errorf("class %q vt tree root is red or has a parent", owner.name)
	}
	count := 0
	var prev *hot
	var walk func(n *hot) (blackHeight int, minF int64, err error)
	walk = func(n *hot) (int, int64, error) {
		if n == nil {
			return 1, math.MaxInt64, nil
		}
		if !n.inVT || n.cl == nil || n.cl.parent != owner {
			return 0, 0, fmt.Errorf("class %q vt tree holds a stray record (id %d)", owner.name, n.id)
		}
		for _, ch := range [2]*hot{n.vl, n.vr} {
			if ch == nil {
				continue
			}
			if ch.vp != n {
				return 0, 0, fmt.Errorf("class %q vt tree: %q has a stale parent link", owner.name, ch.cl.name)
			}
			if n.vred && ch.vred {
				return 0, 0, fmt.Errorf("class %q vt tree: red %q has a red child", owner.name, n.cl.name)
			}
		}
		lh, lm, err := walk(n.vl)
		if err != nil {
			return 0, 0, err
		}
		if prev != nil && !prev.before(n) {
			return 0, 0, fmt.Errorf("class %q vt tree out of order at %q", owner.name, n.cl.name)
		}
		prev = n
		count++
		rh, rm, err := walk(n.vr)
		if err != nil {
			return 0, 0, err
		}
		if lh != rh {
			return 0, 0, fmt.Errorf("class %q vt tree: black heights %d/%d differ under %q", owner.name, lh, rh, n.cl.name)
		}
		m := min(n.f, lm, rm)
		if n.vaug != m {
			return 0, 0, fmt.Errorf("class %q vt tree: vaug %d != subtree min f %d at %q", owner.name, n.vaug, m, n.cl.name)
		}
		if !n.vred {
			lh++
		}
		return lh, m, nil
	}
	if _, _, err := walk(t.root); err != nil {
		return err
	}
	if count != int(owner.hot.nactive) {
		return fmt.Errorf("class %q vt tree holds %d records, nactive %d", owner.name, count, owner.hot.nactive)
	}
	return nil
}
