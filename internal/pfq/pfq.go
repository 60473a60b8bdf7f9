// Package pfq implements packet fair queueing schedulers: WF2Q+ (smallest
// eligible finish time first) and SFQ (smallest start time first), both
// flat and composed hierarchically (H-WF2Q+ / H-SFQ).
//
// H-WF2Q+ is the paper's main baseline, the hierarchical packet fair
// queueing (H-PFQ) scheduler of Bennett and Zhang [3]: every interior node
// runs a PFQ server whose sessions are its children, and a node's logical
// packets are the packets its subtree transmits. Because packet selection
// works purely top-down through per-node virtual times, delay bounds grow
// with the depth of the class in the hierarchy — the limitation H-FSC's
// separate real-time criterion removes — and bandwidth/delay allocation is
// coupled through the single weight per class.
package pfq

import (
	"fmt"

	"github.com/netsched/hfsc/internal/fixpt"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/rbtree"
)

// Algo selects the per-node packet fair queueing discipline.
type Algo uint8

const (
	// WF2Q is WF2Q+: eligible sessions (virtual start <= node virtual
	// time), smallest virtual finish first.
	WF2Q Algo = iota
	// SFQ is start-time fair queueing: smallest virtual start first, node
	// virtual time tracking the start time in service.
	SFQ
)

// vscale converts bytes to virtual-time units before dividing by a weight,
// keeping integer resolution for large weights (weights are typically
// bytes/s rates).
const vscale = 1 << 20

// Node is a class in the PFQ hierarchy.
type Node struct {
	id     int
	name   string
	parent *Node
	child  []*Node
	weight uint64

	// Session state within the parent server.
	s, f       int64 // virtual start/finish times in the parent's units
	backlogged bool
	headLen    int64 // length of the packet this subtree would send next
	eligNode   *rbtree.Node[*Node]
	pendNode   *rbtree.Node[*Node]

	// Server state over the children.
	v    int64
	sumW uint64
	elig *rbtree.Tree[*Node] // backlogged, s <= v, ordered by (f, id)
	pend *rbtree.Tree[*Node] // backlogged, s > v, ordered by (s, id)

	fifo pktq.FIFO // leaves only
}

// ID returns the node identifier (Packet.Class for leaves).
func (n *Node) ID() int { return n.id }

// Name returns the configured name.
func (n *Node) Name() string { return n.name }

// Weight returns the node's share weight.
func (n *Node) Weight() uint64 { return n.weight }

// Parent returns the parent node (nil at the root).
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children (do not modify).
func (n *Node) Children() []*Node { return n.child }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.child) == 0 }

// QueueLen returns the number of packets queued at a leaf.
func (n *Node) QueueLen() int { return n.fifo.Len() }

// Dropped returns the number of packets rejected at this leaf.
func (n *Node) Dropped() uint64 { return n.fifo.Dropped() }

func fLess(a, b *Node) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.id < b.id
}

func sLess(a, b *Node) bool {
	if a.s != b.s {
		return a.s < b.s
	}
	return a.id < b.id
}

// Hier is a hierarchical packet fair queueing scheduler (flat scheduling is
// a depth-1 hierarchy).
type Hier struct {
	algo    Algo
	root    *Node
	nodes   []*Node
	backlog int
	qlimit  int
}

// New creates an empty hierarchy with an implicit root.
func New(algo Algo, qlimit int) *Hier {
	h := &Hier{algo: algo, qlimit: qlimit}
	h.root = &Node{id: 0, name: "root"}
	h.initServer(h.root)
	h.nodes = []*Node{h.root}
	return h
}

func (h *Hier) initServer(n *Node) {
	n.elig = rbtree.New[*Node](fLess, nil)
	n.pend = rbtree.New[*Node](sLess, nil)
	if h.algo == SFQ {
		// SFQ keeps every backlogged session in one start-ordered tree;
		// reuse pend for it and leave elig empty.
		n.elig = rbtree.New[*Node](sLess, nil)
	}
}

// Root returns the implicit root node.
func (h *Hier) Root() *Node { return h.root }

// Nodes returns all nodes in creation order.
func (h *Hier) Nodes() []*Node { return h.nodes }

// AddNode creates a class under parent (nil = root) with the given weight.
func (h *Hier) AddNode(parent *Node, name string, weight uint64) (*Node, error) {
	if parent == nil {
		parent = h.root
	}
	if weight == 0 {
		return nil, fmt.Errorf("pfq: node %q needs a positive weight", name)
	}
	if parent.fifo.Len() > 0 {
		return nil, fmt.Errorf("pfq: parent %q already carries traffic", parent.name)
	}
	n := &Node{id: len(h.nodes), name: name, parent: parent, weight: weight}
	n.fifo.PktLimit = h.qlimit
	h.initServer(n)
	parent.child = append(parent.child, n)
	parent.sumW += weight
	h.nodes = append(h.nodes, n)
	return n, nil
}

// Backlog implements sched.Scheduler.
func (h *Hier) Backlog() int { return h.backlog }

// NextReady implements sched.Scheduler; PFQ is work conserving.
func (h *Hier) NextReady(now int64) (int64, bool) { return 0, false }

// perWeight converts a byte length into session virtual units.
func perWeight(length int64, w uint64) int64 {
	return fixpt.MulDivCeilSat(uint64(length), vscale, w)
}

// Enqueue implements sched.Scheduler.
func (h *Hier) Enqueue(p *pktq.Packet, now int64) bool {
	if p.Class <= 0 || p.Class >= len(h.nodes) || !h.nodes[p.Class].IsLeaf() {
		panic(fmt.Sprintf("pfq: enqueue to invalid leaf %d", p.Class))
	}
	if p.Work() <= 0 {
		panic(fmt.Sprintf("pfq: work item with non-positive cost %d", p.Work()))
	}
	leaf := h.nodes[p.Class]
	if !leaf.fifo.Push(p) {
		return false
	}
	h.backlog++
	h.refreshUp(leaf)
	return true
}

// refreshUp re-establishes session state from n upward after its subtree's
// head may have changed: recompute head length, (re)activate, reposition in
// the parent's trees, and continue while something changed.
func (h *Hier) refreshUp(n *Node) {
	for ; n.parent != nil; n = n.parent {
		head := h.headLen(n)
		if head == 0 {
			// Subtree drained: deactivate at the parent.
			if !n.backlogged {
				return
			}
			n.backlogged = false
			h.detach(n)
			continue
		}
		if n.backlogged && head == n.headLen {
			return // no visible change at this level
		}
		p := n.parent
		if !n.backlogged {
			// Activation: S = max(V_parent, F_prev); F = S + head/φ.
			n.backlogged = true
			n.s = n.f
			if p.v > n.s {
				n.s = p.v
			}
		} else {
			// Head length changed (e.g. smaller packet arrived behind a
			// reordering child server): keep S, refresh F.
			h.detach(n)
		}
		n.headLen = head
		n.f = fixpt.SatAdd(n.s, perWeight(head, n.weight))
		h.attach(n)
	}
}

// headLen returns the length of the packet n's subtree would transmit next
// under its own selection, or 0 if it has none.
func (h *Hier) headLen(n *Node) int64 {
	for !n.IsLeaf() {
		c := h.selectChild(n)
		if c == nil {
			return 0
		}
		n = c
	}
	if p := n.fifo.Front(); p != nil {
		return p.Work()
	}
	return 0
}

// attach inserts a backlogged session into its parent's structures.
func (h *Hier) attach(n *Node) {
	p := n.parent
	if h.algo == SFQ {
		n.eligNode = p.elig.Insert(n)
		return
	}
	if n.s <= p.v {
		n.eligNode = p.elig.Insert(n)
	} else {
		n.pendNode = p.pend.Insert(n)
	}
}

// detach removes a session from its parent's structures.
func (h *Hier) detach(n *Node) {
	p := n.parent
	if n.eligNode != nil {
		p.elig.Delete(n.eligNode)
		n.eligNode = nil
	}
	if n.pendNode != nil {
		p.pend.Delete(n.pendNode)
		n.pendNode = nil
	}
}

// migrate moves pending sessions whose start time has been reached into the
// eligible tree (WF2Q+ only).
func (h *Hier) migrate(p *Node) {
	for {
		m := p.pend.Min()
		if m == nil || m.Item.s > p.v {
			return
		}
		n := m.Item
		p.pend.Delete(m)
		n.pendNode = nil
		n.eligNode = p.elig.Insert(n)
	}
}

// selectChild returns the child the node's server would dispatch next.
func (h *Hier) selectChild(p *Node) *Node {
	if h.algo == SFQ {
		if m := p.elig.Min(); m != nil {
			return m.Item
		}
		return nil
	}
	h.migrate(p)
	if m := p.elig.Min(); m != nil {
		return m.Item
	}
	// All backlogged sessions are ineligible: WF2Q+'s virtual time jumps
	// to the smallest start time (the max term of its V formula), which
	// must make at least one session eligible.
	if m := p.pend.Min(); m != nil {
		p.v = m.Item.s
		h.migrate(p)
		return p.elig.Min().Item
	}
	return nil
}

// Dequeue implements sched.Scheduler: select top-down, serve, then update
// virtual times bottom-up along the served path.
func (h *Hier) Dequeue(now int64) *pktq.Packet {
	if h.backlog == 0 {
		return nil
	}
	// Top-down selection.
	var path []*Node
	n := h.root
	for !n.IsLeaf() {
		c := h.selectChild(n)
		if c == nil {
			return nil // cannot happen while backlog > 0
		}
		path = append(path, n)
		n = c
	}
	leaf := n
	p := leaf.fifo.Pop()
	h.backlog--
	length := p.Work()
	p.Crit = pktq.ByLinkShare

	// SFQ's per-server virtual time is the start time of the packet in
	// service; capture the selected children's starts before they advance.
	var sfqV []int64
	if h.algo == SFQ {
		sfqV = make([]int64, len(path))
		c := leaf
		for i := len(path) - 1; i >= 0; i-- {
			sfqV[i] = c.s
			c = c.parent
		}
	}

	// Update session state bottom-up: every session on the served path
	// transmitted this packet, so its start advances to its finish
	// (S = F, the continuous-backlog rule); its new finish comes from the
	// packet its subtree would send next. Bottom-up order ensures each
	// node's head is computed over already-updated children.
	for n := leaf; n.parent != nil; n = n.parent {
		h.detach(n)
		head := h.headLen(n)
		if head == 0 {
			n.backlogged = false
			n.headLen = 0
			continue
		}
		n.s = n.f
		n.headLen = head
		n.f = fixpt.SatAdd(n.s, perWeight(head, n.weight))
		h.attach(n)
	}

	// Advance each server's virtual time for the work performed. WF2Q+
	// uses V = max(V + L/Φ, min S over backlogged sessions): the max term
	// (applied here with post-service starts) keeps V from drifting behind
	// when every backlogged session has pulled ahead — without it a
	// lightweight session arriving in the gap would be the only eligible
	// one and could jump the queue.
	for i, srv := range path {
		switch h.algo {
		case SFQ:
			srv.v = sfqV[i]
		default:
			srv.v = fixpt.SatAdd(srv.v, perWeight(length, srv.sumW))
			if srv.elig.Len() == 0 {
				if m := srv.pend.Min(); m != nil && m.Item.s > srv.v {
					srv.v = m.Item.s
				}
			}
		}
	}
	return p
}
