// Package hls implements a hierarchical round-robin packet scheduler in
// the style of Luangsomboon & Liebeherr's HLS: hierarchical max-min fair
// link sharing with near-O(1) per-packet work and no virtual-time trees.
//
// Each interior node runs a deficit round robin over its *active* children
// (an intrusive circular ring). Selection is a root-to-leaf walk following
// each node's current-turn pointer — no ordered structure is consulted —
// and the post-dequeue update charges the packet's cost to every node on
// the served path and advances at most one turn per level. The quantum
// granted at each turn start is adaptive: it scales with the child's
// weight and is kept at or above the largest work unit ever enqueued, so
// a freshly granted turn always serves at least one packet and every ring
// advance is paid for by a transmission — O(depth) worst case, O(1)
// amortized per level, independent of the number of classes.
//
// The trade against H-FSC is explicit: HLS carries no real-time curves
// (no per-packet deadlines, delay coupled to the hierarchy like H-PFQ)
// and no upper limits; what it guarantees is hierarchical weighted
// fairness and work conservation. The public Scheduler therefore runs it
// only under BackendAuto, and only while no class carries a real-time or
// upper-limit curve.
package hls

import (
	"fmt"

	"github.com/netsched/hfsc/internal/fixpt"
	"github.com/netsched/hfsc/internal/pktq"
)

// node is one class. Nodes are addressed by caller-assigned dense ids
// (index into Sched.nodes); id 0 is the implicit root.
type node struct {
	parent *node
	weight int64

	// Intrusive ring of the parent's active children. next/prev are nil
	// exactly when the node is not in its parent's ring.
	next, prev *node

	// deficit is the remaining grant of the node's current (or last)
	// turn; it goes negative when the closing packet overdraws it
	// (post-charge) and the debt is carried into the next grant.
	deficit int64

	// quantum is the cached per-turn grant, valid while the (maxWork,
	// parent minW) pair it was computed for is unchanged.
	quantum int64
	qMaxW   int64
	qMinW   int64

	// Server state over the children (interior nodes).
	cur      *node // child whose turn is in progress; nil = no active child
	children int
	minW     int64 // smallest child weight, normalizes sibling quanta

	fifo pktq.FIFO // leaves only
	sent uint64    // leaves only
	work int64     // cost served in the node's subtree
}

func (n *node) leaf() bool { return n.children == 0 }

func (n *node) active() bool {
	if n.leaf() {
		return n.fifo.Len() > 0
	}
	return n.cur != nil
}

// Sched is the hierarchical round-robin scheduler over one link.
type Sched struct {
	nodes   []*node
	backlog int
	qlimit  int
	// maxWork is the largest cost ever enqueued; quantum grants never
	// fall below it (monotone, so carried turn debts stay covered).
	maxWork int64
}

// New creates an empty scheduler with an implicit root (id 0) and the
// given default per-leaf queue limit in packets (0 = unbounded).
func New(qlimit int) *Sched {
	return &Sched{nodes: []*node{{weight: 1}}, qlimit: qlimit}
}

func (s *Sched) node(id int) *node {
	if id < 0 || id >= len(s.nodes) {
		return nil
	}
	return s.nodes[id]
}

// AddClass creates a class with the caller-assigned id under parent
// (0 = root) with the given positive weight. A parent that has carried
// traffic as a leaf cannot gain children.
func (s *Sched) AddClass(id, parent int, weight int64) error {
	if id <= 0 {
		return fmt.Errorf("hls: class id %d must be positive", id)
	}
	if s.node(id) != nil {
		return fmt.Errorf("hls: duplicate class id %d", id)
	}
	if weight <= 0 {
		return fmt.Errorf("hls: class %d needs a positive weight", id)
	}
	p := s.node(parent)
	if p == nil {
		return fmt.Errorf("hls: unknown parent %d", parent)
	}
	if p.leaf() && p.fifo.Len() > 0 {
		return fmt.Errorf("hls: parent %d still carries traffic", parent)
	}
	n := &node{parent: p, weight: weight}
	n.fifo.PktLimit = s.qlimit
	for len(s.nodes) <= id {
		s.nodes = append(s.nodes, nil)
	}
	s.nodes[id] = n
	p.children++
	if p.minW == 0 || weight < p.minW {
		p.minW = weight
	}
	return nil
}

// RemoveClass deletes a passive leaf; its id is retired.
func (s *Sched) RemoveClass(id int) error {
	n := s.node(id)
	if n == nil || n.parent == nil {
		return fmt.Errorf("hls: unknown class %d", id)
	}
	if !n.leaf() {
		return fmt.Errorf("hls: class %d has children", id)
	}
	if n.fifo.Len() > 0 {
		return fmt.Errorf("hls: class %d still has queued packets", id)
	}
	p := n.parent
	p.children--
	s.nodes[id] = nil
	n.parent = nil
	if p.minW == n.weight {
		s.recomputeMinW(p)
	}
	return nil
}

// SetWeight changes a class's fair-share weight; it takes effect from the
// class's next turn grant.
func (s *Sched) SetWeight(id int, weight int64) error {
	n := s.node(id)
	if n == nil || n.parent == nil {
		return fmt.Errorf("hls: unknown class %d", id)
	}
	if weight <= 0 {
		return fmt.Errorf("hls: class %d needs a positive weight", id)
	}
	old := n.weight
	n.weight = weight
	n.qMaxW = -1 // invalidate the cached quantum
	p := n.parent
	if weight < p.minW {
		p.minW = weight
	} else if old == p.minW {
		s.recomputeMinW(p)
	}
	return nil
}

// SetQueueLimit bounds a leaf's queue in packets (0 = unlimited).
func (s *Sched) SetQueueLimit(id, limit int) error {
	n := s.node(id)
	if n == nil || n.parent == nil {
		return fmt.Errorf("hls: unknown class %d", id)
	}
	n.fifo.PktLimit = limit
	return nil
}

func (s *Sched) recomputeMinW(p *node) {
	p.minW = 0
	for _, c := range s.nodes {
		if c != nil && c.parent == p && (p.minW == 0 || c.weight < p.minW) {
			p.minW = c.weight
		}
	}
	if p.minW == 0 {
		p.minW = 1
	}
}

// grant opens a turn for child c of p: top up its deficit by a quantum
// proportional to its weight, normalized so the lightest sibling's
// quantum equals the largest work unit ever enqueued. Two properties
// follow: a freshly granted turn always clears the carried debt (debt is
// bounded by maxWork, the grant is at least maxWork) and so serves at
// least one packet — the O(1)-amortized DRR invariant — and the rotation
// granularity stays at packet scale even when weights are raw byte
// rates, keeping short-window fairness tight. The quantum is cached per
// node and recomputed only when maxWork or the sibling minimum moves.
func (s *Sched) grant(p, c *node) {
	if c.qMaxW != s.maxWork || c.qMinW != p.minW {
		c.quantum = fixpt.MulDivCeilSat(uint64(c.weight), uint64(s.maxWork), uint64(p.minW))
		c.qMaxW, c.qMinW = s.maxWork, p.minW
	}
	c.deficit += c.quantum
}

// activate links c at the tail of p's round (just before the current
// turn) and opens its turn immediately when the ring was empty.
func (s *Sched) activate(p, c *node) {
	if p.cur == nil {
		c.next, c.prev = c, c
		p.cur = c
		s.grant(p, c)
		return
	}
	cur := p.cur
	c.next = cur
	c.prev = cur.prev
	cur.prev.next = c
	cur.prev = c
}

// deactivate unlinks c from p's ring, dropping any unused grant (a class
// may not bank credit across backlog periods).
func (s *Sched) deactivate(p, c *node) {
	if c.next == c {
		p.cur = nil
	} else {
		if p.cur == c {
			p.cur = c.next
			s.grant(p, c.next)
		}
		c.prev.next = c.next
		c.next.prev = c.prev
	}
	c.next, c.prev = nil, nil
	c.deficit = 0
}

// Backlog returns the number of queued packets.
func (s *Sched) Backlog() int { return s.backlog }

// NextReady implements the scheduler contract; HLS is work conserving.
func (s *Sched) NextReady(now int64) (int64, bool) { return 0, false }

// Enqueue accepts one work item for leaf class p.Class; false means the
// leaf's queue limit dropped it.
func (s *Sched) Enqueue(p *pktq.Packet, now int64) bool {
	n := s.node(p.Class)
	if n == nil || n.parent == nil || !n.leaf() {
		panic(fmt.Sprintf("hls: enqueue to invalid leaf %d", p.Class))
	}
	w := p.Work()
	if w <= 0 {
		panic(fmt.Sprintf("hls: work item with non-positive cost %d", w))
	}
	if !n.fifo.Push(p) {
		return false
	}
	s.backlog++
	if w > s.maxWork {
		s.maxWork = w
	}
	if n.fifo.Len() == 1 {
		// Newly backlogged: splice into each inactive ancestor's round.
		for c := n; c.parent != nil; c = c.parent {
			p := c.parent
			wasActive := p.active()
			s.activate(p, c)
			if wasActive {
				break
			}
		}
	}
	return true
}

// Dequeue selects the next packet: follow the current-turn pointers to a
// leaf, pop, then charge the cost along the served path, closing turns
// whose grant is spent and detaching subtrees that drained.
func (s *Sched) Dequeue(now int64) *pktq.Packet {
	if s.backlog == 0 {
		return nil
	}
	n := s.nodes[0]
	for !n.leaf() {
		n = n.cur
	}
	p := n.fifo.Pop()
	s.backlog--
	cost := p.Work()
	p.Crit = pktq.ByLinkShare
	n.sent++
	s.nodes[0].work += cost
	// Every node on the served path is the in-turn child of its parent;
	// charge each and settle its turn bottom-up (a drained child must be
	// detached before its parent's activity is judged).
	for c := n; c.parent != nil; c = c.parent {
		par := c.parent
		c.work += cost
		c.deficit -= cost
		if !c.active() {
			s.deactivate(par, c)
			continue
		}
		if c.deficit <= 0 {
			// Turn over: move to the round's next child and open its turn.
			par.cur = c.next
			s.grant(par, c.next)
		}
	}
	return p
}

// DequeueN dequeues up to max packets, appending to out.
func (s *Sched) DequeueN(now int64, max int, out []*pktq.Packet) []*pktq.Packet {
	for i := 0; i < max && s.backlog > 0; i++ {
		out = append(out, s.Dequeue(now))
	}
	return out
}

// Stats is one class's counters. Only Work is non-zero for interior
// classes and the root.
type Stats struct {
	Queued      int    // packets queued
	QueuedBytes int64  // cost units queued
	Sent        uint64 // packets dequeued over the class's lifetime
	Dropped     uint64 // packets refused by the queue limit
	Work        int64  // cumulative cost units served in the subtree
}

// Stats reports a class's counters (id 0 is the root); ok is false for
// unknown or removed ids.
func (s *Sched) Stats(id int) (st Stats, ok bool) {
	n := s.node(id)
	if n == nil {
		return Stats{}, false
	}
	return Stats{
		Queued:      n.fifo.Len(),
		QueuedBytes: n.fifo.Bytes(),
		Sent:        n.sent,
		Dropped:     n.fifo.Dropped(),
		Work:        n.work,
	}, true
}

// CheckInvariants validates ring and activity structure; nil when sound.
// Exported for the randomized conformance/soak tests.
func (s *Sched) CheckInvariants() error {
	backlog := 0
	for id, n := range s.nodes {
		if n == nil || n.parent == nil {
			continue
		}
		if n.leaf() {
			backlog += n.fifo.Len()
		}
		inRing := n.next != nil
		if inRing != n.active() {
			return fmt.Errorf("hls: class %d active=%v but ring membership=%v", id, n.active(), inRing)
		}
		if !inRing && n.deficit != 0 {
			return fmt.Errorf("hls: passive class %d holds deficit %d", id, n.deficit)
		}
	}
	if backlog != s.backlog {
		return fmt.Errorf("hls: backlog counter %d != queued packets %d", s.backlog, backlog)
	}
	// Each ring must be consistent and contain its parent's cur.
	for id, p := range s.nodes {
		if p == nil || p.cur == nil {
			continue
		}
		seen := 0
		for c := p.cur; ; c = c.next {
			if c.parent != p {
				return fmt.Errorf("hls: ring of %d holds foreign node", id)
			}
			if c.next.prev != c {
				return fmt.Errorf("hls: ring of %d has broken links", id)
			}
			seen++
			if seen > p.children {
				return fmt.Errorf("hls: ring of %d longer than child count", id)
			}
			if c.next == p.cur {
				break
			}
		}
	}
	return nil
}
