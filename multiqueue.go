package hfsc

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/multi"
)

// MultiConfig configures a MultiQueue. The embedded Config applies to
// every shard (LinkRate is the whole link's line rate; each shard paces
// at its slice of it).
type MultiConfig struct {
	Config

	// Shards is the number of scheduler shards — independent Schedulers,
	// each behind its own PacedQueue and pacing goroutine. 0 picks one per
	// CPU rounded up to a power of two; values are clamped to [1, 64].
	Shards int

	// IntakeShards and IntakeDepth tune each shard's intake rings, and
	// DrainHighWater each shard's scheduler-side backlog cap (see
	// PacedQueue); zero picks the defaults.
	IntakeShards int
	IntakeDepth  int

	DrainHighWater int

	// RebalanceEvery is the excess-bandwidth rebalancing period: how often
	// the measured per-shard demand re-divides the line rate beyond the
	// guaranteed floors. 0 picks the default (250 ms); negative disables
	// rebalancing, freezing the slices computed at Start.
	RebalanceEvery time.Duration
}

// DefaultRebalanceEvery is the rebalancing period used when
// MultiConfig.RebalanceEvery is zero.
const DefaultRebalanceEvery = 250 * time.Millisecond

// MultiQueue runs H-FSC across scheduler shards — one independent
// Scheduler per shard, each owned by its own pacing goroutine draining
// its own intake rings — so the scheduling work itself scales with
// cores instead of serializing on one dequeue loop.
//
// The partition follows the paper's admissibility condition, which
// composes: top-level classes (and their whole subtrees) are pinned to a
// shard at AddClass time, and each shard's pacing rate is a
// service-curve slice of the line rate that never drops below the
// shard's admitted sum of real-time curves. Real-time guarantees
// (Theorem 2 delay bounds) therefore hold per shard exactly as they
// would on a dedicated link of the slice's rate. What is traded away is
// packet-granular link-sharing *across* shards: a rebalancer goroutine
// re-divides only the excess (non-guaranteed) bandwidth between shards
// from measured backlog and EWMA service rates, so cross-shard fairness
// is epoch-granular where intra-shard fairness remains per-packet.
//
// Class identifiers returned by AddClass (and carried in Packet.Class)
// are global to the MultiQueue; the mapping to shard-local classes is
// internal. The hierarchy is dynamic: classes can be added, removed and
// re-curved while the shards run (the op is routed to the owning shard's
// pacing goroutine), and a ClassTemplate (SetTemplate) auto-creates and
// garbage-collects leaves exactly as on a single PacedQueue. Admin calls
// must not run concurrently with Start.
type MultiQueue struct {
	// OnReject, when set before Start, is invoked for packets accepted at
	// intake but refused by a shard's scheduler at drain time, with
	// Packet.Class restored to the global id (see PacedQueue.OnReject).
	// Runs on the shard's pacing goroutine; it must not block or call back
	// into the MultiQueue.
	OnReject func(*Packet, DropReason)

	cfg      MultiConfig
	line     uint64
	transmit func(*Packet)

	shards []*mqShard
	place  *multi.Placement
	rebal  *multi.Rebalancer

	// table maps global class ids to classes, readable lock-free from the
	// submit path while admin ops add and remove entries; nextID is the
	// monotone id allocator (ids are never reused — a stale packet or
	// correction can never land on a class created later). byName is the
	// authoritative name registry; names mirrors it as name → id for
	// lock-free SubmitTo resolution.
	table  classTable
	nextID int
	byName map[string]*MultiClass
	names  sync.Map

	// adminMu serializes the admin operations (add/remove/set-curves/
	// ensure); it is held across shard Inspect calls, which m.mu — taken
	// by GC callbacks on pacing goroutines — never may be.
	adminMu sync.Mutex
	tpls    []tplRule

	mu       sync.Mutex
	started  bool
	stopped  bool
	stopReb  chan struct{}
	rebDone  sync.WaitGroup
	floorBuf []uint64
	sentBuf  []int64
	backBuf  []int64

	dropUnknown atomic.Uint64
}

// mqChunkBits sizes classTable chunks (1024 entries each).
const mqChunkBits = 10

type mqChunk [1 << mqChunkBits]atomic.Pointer[MultiClass]

// classTable is the global-id → class index: a spine of fixed chunks.
// Readers (Submit, classRef) are lock-free — one spine load plus one
// chunk-entry load; writers hold m.mu and grow the spine copy-on-write
// (chunks themselves are shared, so an add at 100k classes copies ~100
// spine pointers, not the table).
type classTable struct {
	spine atomic.Pointer[[]*mqChunk]
}

func (t *classTable) get(id int) *MultiClass {
	if id < 0 {
		return nil
	}
	sp := t.spine.Load()
	if sp == nil || id>>mqChunkBits >= len(*sp) {
		return nil
	}
	return (*sp)[id>>mqChunkBits][id&(1<<mqChunkBits-1)].Load()
}

// set installs (or clears, mc == nil) an entry; callers hold m.mu.
func (t *classTable) set(id int, mc *MultiClass) {
	ci := id >> mqChunkBits
	var cur []*mqChunk
	if sp := t.spine.Load(); sp != nil {
		cur = *sp
	}
	if ci >= len(cur) {
		grown := make([]*mqChunk, ci+1)
		copy(grown, cur)
		for i := len(cur); i <= ci; i++ {
			grown[i] = new(mqChunk)
		}
		t.spine.Store(&grown)
		cur = grown
	}
	cur[ci][id&(1<<mqChunkBits-1)].Store(mc)
}

// mqShard is one scheduler shard: a Scheduler owned by a PacedQueue, plus
// the local→global class id mapping its Transmit wrapper restores.
type mqShard struct {
	sched *Scheduler
	q     *PacedQueue
	// globalOf maps local class ids to global ids (-1 for the root).
	// Written only by the goroutine owning the shard's Scheduler (the
	// pacing goroutine after Start), under idMu; cross-goroutine readers
	// (Snapshot, FlightEvents) take idMu, while same-goroutine readers
	// (the Transmit wrapper, DumpTree's remap) need no lock. Entries of
	// removed classes keep their stale global id so late transmits and
	// rejects still report the retired identity.
	idMu     sync.Mutex
	globalOf []int
}

// MultiClass is a class of a MultiQueue: a shard-local Class plus its
// global identity. Use ID as Packet.Class for leaves.
type MultiClass struct {
	cl    *Class
	mq    *MultiQueue
	shard int
	id    int
	// floor is the guarantee (sup-rate) currently charged to the shard's
	// placement floor, and top whether this class was Placed (top-level)
	// rather than Charged. Guarded by mq.mu (SetCurves moves floors).
	floor uint64
	top   bool
}

// ID returns the MultiQueue-global identifier to place in Packet.Class.
func (c *MultiClass) ID() int { return c.id }

// Name returns the class name (unique across the whole MultiQueue).
func (c *MultiClass) Name() string { return c.cl.Name() }

// Shard returns the index of the scheduler shard this class is pinned to.
func (c *MultiClass) Shard() int { return c.shard }

// IsLeaf reports whether the class has no children.
func (c *MultiClass) IsLeaf() bool { return c.cl.IsLeaf() }

// Parent returns the parent class, or nil for a top-level class.
func (c *MultiClass) Parent() *MultiClass {
	sh := c.mq.shards[c.shard]
	p := c.cl.Parent()
	if p == nil || p == sh.sched.Root() {
		return nil
	}
	sh.idMu.Lock()
	gid := globalID(sh.globalOf, p.ID())
	sh.idMu.Unlock()
	return c.mq.table.get(gid)
}

// Stats reports the class's service counters. Like direct Scheduler
// access, it is safe only before Start or after Stop (the shard's pacing
// goroutine owns the counters in between); use Metrics for live numbers.
func (c *MultiClass) Stats() ClassStats { return c.cl.Stats() }

// Metrics returns this class's slice of the metrics snapshot (zero when
// metrics are disabled), with the ID translated to the global id space.
// Safe from any goroutine.
func (c *MultiClass) Metrics() ClassSnapshot {
	cs := c.cl.Metrics()
	if cs.Name != "" {
		cs.ID = c.id
	}
	return cs
}

// NewMultiQueue creates a MultiQueue with the given transmit callback,
// which is invoked for every departing packet from that packet's shard
// pacing goroutine — with Shards > 1 it must be safe for concurrent use.
func NewMultiQueue(cfg MultiConfig, transmit func(*Packet)) (*MultiQueue, error) {
	if cfg.LinkRate == 0 {
		return nil, fmt.Errorf("hfsc: MultiQueue needs Config.LinkRate set")
	}
	if transmit == nil {
		return nil, fmt.Errorf("hfsc: MultiQueue needs a Transmit callback")
	}
	n := cfg.Shards
	if n <= 0 {
		n = multi.DefaultShards()
	}
	if n > multi.MaxShards {
		n = multi.MaxShards
	}
	cfg.Shards = n
	if cfg.RebalanceEvery == 0 {
		cfg.RebalanceEvery = DefaultRebalanceEvery
	}
	m := &MultiQueue{
		cfg:      cfg,
		line:     cfg.LinkRate,
		transmit: transmit,
		place:    multi.NewPlacement(n),
		rebal:    multi.NewRebalancer(cfg.LinkRate, n, cfg.MetricsWindow),
		byName:   map[string]*MultiClass{},
		stopReb:  make(chan struct{}),
		sentBuf:  make([]int64, n),
		backBuf:  make([]int64, n),
	}
	// All shards publish to and read from one coarse clock: any shard's
	// pacing pass freshens the stamp every producer sees, and the CAS-max
	// advance keeps it monotone across the racing pacing goroutines.
	clk := &coarseClock{}
	// Templates live at the MultiQueue level (they choose a shard at
	// creation); a shard-local AutoClass would create classes the global
	// tables never hear about, so it is stripped from the shard config.
	shCfg := cfg.Config
	if shCfg.AutoClass != nil {
		m.tpls = append(m.tpls, tplRule{prefix: "", tpl: *shCfg.AutoClass})
		shCfg.AutoClass = nil
	}
	for i := 0; i < n; i++ {
		sh := &mqShard{globalOf: []int{-1}} // local id 0 is the shard's root
		sh.sched = New(shCfg)
		q, err := NewPacedQueue(sh.sched, func(p *Packet) {
			p.Class = sh.globalOf[p.Class]
			transmit(p)
		})
		if err != nil {
			return nil, err
		}
		q.OnReject = func(p *Packet, r DropReason) {
			cb := m.OnReject
			if cb == nil {
				return
			}
			// Pacing goroutine: globalOf needs no lock here.
			p.Class = globalID(sh.globalOf, p.Class)
			cb(p, r)
		}
		q.IntakeShards = cfg.IntakeShards
		q.IntakeDepth = cfg.IntakeDepth
		q.DrainHighWater = cfg.DrainHighWater
		q.clk = clk
		sh.q = q
		m.shards = append(m.shards, sh)
	}
	return m, nil
}

// NumShards reports the shard count.
func (m *MultiQueue) NumShards() int { return len(m.shards) }

// supRate returns the supremum of sc(t)/t for a two-piece linear curve —
// the conservative per-curve rate the shard floors account.
func supRate(sc SC) uint64 {
	if sc.M1 > sc.M2 {
		return sc.M1
	}
	return sc.M2
}

// AddClass creates a class, before or after Start. A nil parent makes a
// top-level class, which is pinned to a shard chosen to balance
// guaranteed load; children land on their parent's shard, so each
// top-level subtree lives entirely inside one scheduler. Names must be
// unique across the MultiQueue. On a running MultiQueue the creation is
// executed by the owning shard's pacing goroutine between scheduling
// passes.
func (m *MultiQueue) AddClass(parent *MultiClass, name string, cfg ClassConfig) (*MultiClass, error) {
	m.adminMu.Lock()
	defer m.adminMu.Unlock()
	return m.addClass(parent, name, cfg, nil)
}

// addClass is the shared creation path (adminMu held). tpl, when
// non-nil, enrolls the class in the template's idle collection with the
// MultiQueue-level cleanup chained in front of the template's OnCollect.
func (m *MultiQueue) addClass(parent *MultiClass, name string, cfg ClassConfig, tpl *ClassTemplate) (*MultiClass, error) {
	guarantee := supRate(cfg.RealTime)
	m.mu.Lock()
	if _, dup := m.byName[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrDuplicateClass, name)
	}
	top := parent == nil
	var shard int
	var parentCl *Class
	if top {
		shard = m.place.Place(guarantee)
	} else {
		shard = parent.shard
		parentCl = parent.cl
		m.place.Charge(shard, guarantee)
	}
	id := m.nextID
	m.nextID++ // a failed add leaves a gap; ids are never reused anyway
	m.mu.Unlock()

	sh := m.shards[shard]
	mc := &MultiClass{mq: m, shard: shard, id: id, floor: guarantee, top: top}
	var err error
	sh.q.Inspect(func(s *Scheduler) {
		var cl *Class
		if cl, err = s.AddClass(parentCl, name, cfg); err != nil {
			return
		}
		mc.cl = cl
		if tpl != nil && tpl.Grace > 0 {
			// Capture the callback by value: the template rule itself may
			// be replaced via SetTemplate while this class lives.
			after := tpl.OnCollect
			s.trackLocked(cl, tpl.Grace, func(string, int) { m.onShardCollect(mc, after) }, Now(time.Now()))
		}
		sh.idMu.Lock()
		for len(sh.globalOf) <= cl.ID() {
			sh.globalOf = append(sh.globalOf, -1)
		}
		sh.globalOf[cl.ID()] = id
		sh.idMu.Unlock()
	})
	m.mu.Lock()
	if err != nil {
		if top {
			m.place.Unplace(shard, guarantee)
		} else {
			m.place.Uncharge(shard, guarantee)
		}
		m.mu.Unlock()
		return nil, err
	}
	m.byName[name] = mc
	m.table.set(id, mc)
	m.mu.Unlock()
	m.names.Store(name, id)
	return mc, nil
}

// onShardCollect is the GC hook for template-created classes: the shard's
// CollectIdle already removed the class from its Scheduler (on the shard's
// pacing goroutine); this strips the MultiQueue-level registrations and
// returns the floor, then hands off to the template's own OnCollect. It
// takes only m.mu — never adminMu, which an admin op may hold while
// waiting on this very pacing goroutine.
func (m *MultiQueue) onShardCollect(mc *MultiClass, after func(string, int)) {
	name := mc.cl.Name()
	m.mu.Lock()
	if m.byName[name] == mc {
		delete(m.byName, name)
	}
	m.table.set(mc.id, nil)
	if mc.top {
		m.place.Unplace(mc.shard, mc.floor)
	} else {
		m.place.Uncharge(mc.shard, mc.floor)
	}
	m.mu.Unlock()
	m.names.CompareAndDelete(name, mc.id)
	if after != nil {
		after(name, mc.id)
	}
}

// RemoveClass deletes the named class while the shards run. Fails with
// ErrUnknownClass for an unknown name, ErrHasChildren for an interior
// class and ErrClassBusy while the class still holds packets or in-tree
// scheduling state. The retired global id is never reused; packets for it
// still in intake are refused at drain time (see OnReject). A removed
// top-level class frees its placement slot, and the shard's floor drops
// by the class's guarantee either way (the rebalancer redistributes on
// its next pass).
func (m *MultiQueue) RemoveClass(name string) error {
	m.adminMu.Lock()
	defer m.adminMu.Unlock()
	m.mu.Lock()
	mc := m.byName[name]
	m.mu.Unlock()
	if mc == nil {
		return fmt.Errorf("%w: %q", ErrUnknownClass, name)
	}
	sh := m.shards[mc.shard]
	var err error
	sh.q.Inspect(func(s *Scheduler) {
		w := s.Class(name)
		if w == nil { // collected by the shard GC after the lookup above
			err = fmt.Errorf("%w: %q", ErrUnknownClass, name)
			return
		}
		err = s.RemoveClass(w)
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.byName[name] == mc {
		delete(m.byName, name)
	}
	m.table.set(mc.id, nil)
	if mc.top {
		m.place.Unplace(mc.shard, mc.floor)
	} else {
		m.place.Uncharge(mc.shard, mc.floor)
	}
	m.mu.Unlock()
	m.names.CompareAndDelete(name, mc.id)
	return nil
}

// SetCurves replaces the named class's curves while the shards run —
// live, even mid-backlog (see Scheduler.SetCurves). The class's guarantee
// contribution to its shard's placement floor moves with the new
// real-time curve, so admissibility accounting and the rebalancer's
// floors stay truthful.
func (m *MultiQueue) SetCurves(name string, cfg ClassConfig) error {
	m.adminMu.Lock()
	defer m.adminMu.Unlock()
	m.mu.Lock()
	mc := m.byName[name]
	m.mu.Unlock()
	if mc == nil {
		return fmt.Errorf("%w: %q", ErrUnknownClass, name)
	}
	sh := m.shards[mc.shard]
	var err error
	sh.q.Inspect(func(s *Scheduler) {
		w := s.Class(name)
		if w == nil {
			err = fmt.Errorf("%w: %q", ErrUnknownClass, name)
			return
		}
		err = s.SetCurves(w, cfg, Now(time.Now()))
	})
	if err != nil {
		return err
	}
	newFloor := supRate(cfg.RealTime)
	m.mu.Lock()
	if newFloor != mc.floor {
		m.place.Uncharge(mc.shard, mc.floor)
		m.place.Charge(mc.shard, newFloor)
		mc.floor = newFloor
	}
	m.mu.Unlock()
	return nil
}

// SetTemplate registers (or replaces) the class template for names with
// the given prefix — the MultiQueue analogue of Scheduler.SetTemplate.
// Auto-created top-level classes are placed like AddClass ones; OnCollect
// runs on the owning shard's pacing goroutine after the class and its
// global id have been retired.
func (m *MultiQueue) SetTemplate(prefix string, tpl ClassTemplate) {
	m.adminMu.Lock()
	defer m.adminMu.Unlock()
	for i := range m.tpls {
		if m.tpls[i].prefix == prefix {
			m.tpls[i].tpl = tpl
			return
		}
	}
	m.tpls = append(m.tpls, tplRule{prefix: prefix, tpl: tpl})
}

// EnsureClass resolves the named class, creating it from the matching
// template if needed (ErrUnknownTemplate when none matches; the
// template's Parent must name an existing class).
func (m *MultiQueue) EnsureClass(name string) (*MultiClass, error) {
	m.adminMu.Lock()
	defer m.adminMu.Unlock()
	m.mu.Lock()
	mc := m.byName[name]
	m.mu.Unlock()
	if mc != nil {
		return mc, nil
	}
	tpl, ok := matchTpl(m.tpls, name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTemplate, name)
	}
	cfg, err := tpl.config(name)
	if err != nil {
		return nil, err
	}
	var parent *MultiClass
	if tpl.Parent != "" {
		m.mu.Lock()
		parent = m.byName[tpl.Parent]
		m.mu.Unlock()
		if parent == nil {
			return nil, fmt.Errorf("%w: template parent %q", ErrUnknownClass, tpl.Parent)
		}
	}
	return m.addClass(parent, name, cfg, tpl)
}

// ClassID resolves a class name to its global id, lock-free from any
// goroutine (the SubmitTo fast path). The id may be retired concurrently
// by RemoveClass or the GC; submits to it are then refused.
func (m *MultiQueue) ClassID(name string) (int, bool) {
	v, ok := m.names.Load(name)
	if !ok {
		return 0, false
	}
	return v.(int), true
}

// SubmitTo submits by class name: one lock-free lookup on top of Submit
// in the common case, with unknown names auto-created from the matching
// template first (see PacedQueue.SubmitTo). DropUnknownClass means no
// template matched or the template refused the name.
func (m *MultiQueue) SubmitTo(name string, p *Packet) DropReason {
	if id, ok := m.ClassID(name); ok {
		p.Class = id
		return m.Submit(p)
	}
	mc, err := m.EnsureClass(name)
	if err != nil {
		m.dropUnknown.Add(1)
		return DropUnknownClass
	}
	p.Class = mc.id
	return m.Submit(p)
}

// CollectIdle forces an idle-class collection scan on every shard now,
// returning how many classes were collected (each shard's scan runs on
// its own pacing goroutine; see Scheduler.CollectIdle).
func (m *MultiQueue) CollectIdle() int {
	m.adminMu.Lock()
	defer m.adminMu.Unlock()
	n := 0
	for _, sh := range m.shards {
		n += sh.q.CollectIdle()
	}
	return n
}

// CorrectClass is Correct addressed by class name; unlike Correct's
// silent ignore it reports an unknown name with ErrUnknownClass.
func (m *MultiQueue) CorrectClass(name string, estimated, actual int64, crit Criterion) error {
	id, ok := m.ClassID(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClass, name)
	}
	m.Correct(id, estimated, actual, crit)
	return nil
}

// Class returns the class with the given name, or nil.
func (m *MultiQueue) Class(name string) *MultiClass {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[name]
}

// Classes returns every live class in creation (global id) order;
// removed and collected classes are excluded.
func (m *MultiQueue) Classes() []*MultiClass {
	m.mu.Lock()
	n := m.nextID
	m.mu.Unlock()
	out := make([]*MultiClass, 0, n)
	for id := 0; id < n; id++ {
		if mc := m.table.get(id); mc != nil {
			out = append(out, mc)
		}
	}
	return out
}

// Admissible verifies the composed schedulability condition: the summed
// per-shard guaranteed floors (each the sup-rate sum of its admitted
// real-time curves) must fit in the line rate. This is slightly
// conservative versus the single-scheduler Admissible — sup-rates bound
// the exact curve sum from above — which is the price of giving each
// shard an independently checkable slice.
func (m *MultiQueue) Admissible() error {
	m.mu.Lock()
	total := m.place.TotalFloor()
	m.mu.Unlock()
	if total > m.line {
		return fmt.Errorf("%w (guaranteed floors %d B/s exceed line %d B/s)",
			ErrInadmissible, total, m.line)
	}
	return nil
}

// Start computes the initial rate slices, launches every shard's pacing
// goroutine and, unless disabled, the rebalancer.
func (m *MultiQueue) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.rebalanceLocked(Now(time.Now()))
	for _, sh := range m.shards {
		sh.q.Start()
	}
	if m.cfg.RebalanceEvery > 0 && len(m.shards) > 1 {
		m.rebDone.Add(1)
		go m.rebalanceLoop()
	}
}

// Stop terminates the rebalancer and every shard's pacing goroutine and
// waits for them; queued packets are discarded. Idempotent.
func (m *MultiQueue) Stop() {
	m.mu.Lock()
	if !m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stopReb)
	m.rebDone.Wait()
	for _, sh := range m.shards {
		sh.q.Stop()
	}
}

func (m *MultiQueue) rebalanceLoop() {
	defer m.rebDone.Done()
	t := time.NewTicker(m.cfg.RebalanceEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopReb:
			return
		case now := <-t.C:
			m.mu.Lock()
			m.rebalanceLocked(Now(now))
			m.mu.Unlock()
		}
	}
}

// Rebalance runs one rebalancing pass immediately (the rebalancer
// goroutine does this on its own period; exposed for tests and for
// drivers running with RebalanceEvery < 0).
func (m *MultiQueue) Rebalance() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rebalanceLocked(Now(time.Now()))
}

// rebalanceLocked re-divides the line rate: guaranteed floors always,
// excess by measured demand (EWMA service rate plus intake backlog).
func (m *MultiQueue) rebalanceLocked(now int64) {
	m.floorBuf = m.place.Floors(m.floorBuf)
	for i, sh := range m.shards {
		st := sh.q.Stats()
		m.sentBuf[i] = st.SentBytes
		m.backBuf[i] = int64(st.IntakeBacklog) * paceMTU
	}
	slices := m.rebal.Slices(now, m.sentBuf, m.backBuf, m.floorBuf)
	for i, sh := range m.shards {
		sh.q.SetRate(slices[i])
	}
}

// classRef resolves a global class id to its shard and local id; ok is
// false for unknown (or removed) ids. Lock-free: one table lookup, then
// immutable MultiClass fields.
func (m *MultiQueue) classRef(id int) (*mqShard, int, bool) {
	c := m.table.get(id)
	if c == nil {
		return nil, 0, false
	}
	return m.shards[c.shard], c.cl.ID(), true
}

// Submit hands a packet to its class's shard from any goroutine,
// reporting exactly what happened (see PacedQueue.Submit):
// DropUnknownClass when Packet.Class is no known global class id,
// otherwise the shard's verdict. On any refusal the packet — with
// Packet.Class unchanged — stays owned by the caller.
func (m *MultiQueue) Submit(p *Packet) DropReason {
	if p == nil || p.Work() <= 0 {
		return DropBadPacket
	}
	sh, local, ok := m.classRef(p.Class)
	if !ok {
		m.dropUnknown.Add(1)
		return DropUnknownClass
	}
	global := p.Class
	p.Class = local
	if r := sh.q.Submit(p); r != DropNone {
		p.Class = global
		return r
	}
	return DropNone
}

// TrySubmit is Submit with the reason collapsed to a bool.
func (m *MultiQueue) TrySubmit(p *Packet) bool { return m.Submit(p) == DropNone }

// SubmitCtx is Submit for producers that would rather wait than shed: a
// full intake shard blocks with backoff until the packet is accepted, the
// queue stops, or ctx is done (see PacedQueue.SubmitCtx). On any refusal
// the packet — with Packet.Class unchanged — stays owned by the caller.
func (m *MultiQueue) SubmitCtx(ctx context.Context, p *Packet) DropReason {
	if p == nil || p.Work() <= 0 {
		return DropBadPacket
	}
	sh, local, ok := m.classRef(p.Class)
	if !ok {
		m.dropUnknown.Add(1)
		return DropUnknownClass
	}
	global := p.Class
	p.Class = local
	if r := sh.q.SubmitCtx(ctx, p); r != DropNone {
		p.Class = global
		return r
	}
	return DropNone
}

// Correct reconciles a completed work item's actual cost with its
// estimate on the shard owning the class (see Scheduler.Correct). class
// is the global class id; unknown ids are ignored. Safe from any
// goroutine; applied asynchronously by the shard's pacing goroutine.
func (m *MultiQueue) Correct(class int, estimated, actual int64, crit Criterion) {
	if sh, local, ok := m.classRef(class); ok {
		sh.q.Correct(local, estimated, actual, crit)
	}
}

// SubmitN is the batch form of Submit with PacedQueue.SubmitN's prefix
// contract: packets are routed to their shards in order, stopping at the
// first refusal; each touched shard's doorbell rings once per batch.
// Ownership of ps[:accepted] passes to the shaper; ps[accepted:] stays
// with the caller.
func (m *MultiQueue) SubmitN(ps []*Packet) (accepted int, last DropReason) {
	if len(ps) == 0 {
		return 0, DropNone
	}
	if m.shards[0].q.isStopped() {
		m.shards[0].q.dropStopped.Add(1)
		return 0, DropStopped
	}
	var touched uint64 // shard count is clamped to 64
	kick := func() {
		for touched != 0 {
			i := bits.TrailingZeros64(touched)
			touched &^= 1 << i
			m.shards[i].q.kick()
		}
	}
	for i, p := range ps {
		if p == nil || p.Work() <= 0 {
			kick()
			return i, DropBadPacket
		}
		mc := m.table.get(p.Class)
		if mc == nil {
			m.dropUnknown.Add(1)
			kick()
			return i, DropUnknownClass
		}
		sh := m.shards[mc.shard]
		global := p.Class
		p.Class = mc.cl.ID()
		if !sh.q.push(p) { // the intake shard counted the drop
			p.Class = global
			kick()
			return i, DropIntakeFull
		}
		touched |= 1 << uint(mc.shard)
	}
	kick()
	return len(ps), DropNone
}

// MultiStats is a snapshot of the driver counters across all shards: the
// embedded PacedStats carries the merged totals (ShardHighWater is the
// concatenation of every shard's intake high-water marks, shard 0's
// rings first), Shards the per-shard breakdown.
type MultiStats struct {
	PacedStats
	Shards []ShardStats
}

// ShardStats is one shard's slice of a MultiStats.
type ShardStats struct {
	PacedStats
	// Rate is the shard's current pacing slice (bytes/s) and
	// GuaranteedRate the admitted real-time floor it never drops below.
	Rate           uint64
	GuaranteedRate uint64
}

// Stats snapshots the driver counters of every shard plus the merged
// totals. Safe from any goroutine; a never-started MultiQueue returns
// zero-valued stats.
func (m *MultiQueue) Stats() MultiStats {
	out := MultiStats{Shards: make([]ShardStats, len(m.shards))}
	for i, sh := range m.shards {
		st := sh.q.Stats()
		m.mu.Lock()
		floor := m.place.Floor(i)
		m.mu.Unlock()
		out.Shards[i] = ShardStats{PacedStats: st, Rate: sh.q.Rate(), GuaranteedRate: floor}
		out.SentPackets += st.SentPackets
		out.SentBytes += st.SentBytes
		out.DropsIntakeFull += st.DropsIntakeFull
		out.DropsStopped += st.DropsStopped
		out.DropsCanceled += st.DropsCanceled
		out.IntakeBacklog += st.IntakeBacklog
		out.ShardHighWater = append(out.ShardHighWater, st.ShardHighWater...)
	}
	return out
}

// Snapshot merges every shard's metrics snapshot into one, with class
// ids translated to the global id space; nil when the MultiQueue was
// created without Config.Metrics. Safe from any goroutine.
func (m *MultiQueue) Snapshot() *Snapshot {
	if !m.cfg.Metrics {
		return nil
	}
	snaps := make([]*metrics.Snapshot, len(m.shards))
	for i, sh := range m.shards {
		snaps[i] = sh.q.Snapshot()
	}
	remap := m.globalIDs().remap
	merged := metrics.MergeSnapshots(snaps, remap)
	merged.DropsUnknownClass += m.dropUnknown.Load()
	// The per-shard audit verdicts merge the same way: disjoint classes
	// concatenated under global ids, link counters summed.
	if m.cfg.Audit {
		audits := make([]*audit.Snapshot, len(snaps))
		for i, s := range snaps {
			if s != nil {
				audits[i] = s.Audit
			}
		}
		merged.Audit = audit.Merge(audits, remap)
	}
	return merged
}

// AuditSnapshot merges every shard's guarantee-auditor verdicts into one
// snapshot with class ids translated to the global id space; nil when the
// MultiQueue was created without Config.Audit. Safe from any goroutine.
func (m *MultiQueue) AuditSnapshot() *AuditSnapshot {
	if !m.cfg.Audit {
		return nil
	}
	snaps := make([]*audit.Snapshot, len(m.shards))
	for i, sh := range m.shards {
		snaps[i] = sh.q.AuditSnapshot()
	}
	return audit.Merge(snaps, m.globalIDs().remap)
}

// shardIDMaps is a copy of every shard's local→global class id map.
type shardIDMaps [][]int

// globalIDs copies each shard's id map under its idMu, once per reader
// rather than per lookup: the pacing goroutines may be growing the maps
// concurrently. Take the copy after the per-shard data it will remap, so
// every id in that data is covered.
func (m *MultiQueue) globalIDs() shardIDMaps {
	maps := make(shardIDMaps, len(m.shards))
	for i, sh := range m.shards {
		sh.idMu.Lock()
		maps[i] = append([]int(nil), sh.globalOf...)
		sh.idMu.Unlock()
	}
	return maps
}

// of translates a shard-local class id: -1 for shard roots and ids the
// copy does not cover.
func (g shardIDMaps) of(shard, local int) int { return globalID(g[shard], local) }

// remap is of in the form the snapshot mergers take: ok is false where of
// reports -1.
func (g shardIDMaps) remap(shard, local int) (int, bool) {
	id := g.of(shard, local)
	return id, id >= 0
}

// globalID is the bounds-checked lookup in one shard's id map: -1 for the
// shard root and for ids outside the map.
func globalID(globalOf []int, local int) int {
	if local < 0 || local >= len(globalOf) {
		return -1
	}
	return globalOf[local]
}

// WriteMetrics renders the merged metrics in Prometheus text format
// (ErrMetricsDisabled without Config.Metrics). Safe from any goroutine.
func (m *MultiQueue) WriteMetrics(w io.Writer) error {
	snap := m.Snapshot()
	if snap == nil {
		return ErrMetricsDisabled
	}
	return metrics.WritePrometheus(w, snap)
}

// DelayBound mirrors Scheduler.DelayBound for a leaf pinned to a shard:
// per Theorems 1 and 2 the bound is the curve's time to deliver u bytes
// plus one maximum packet's transmission time at the shard's guaranteed
// slice — the rate the slice never drops below, not the full line.
func (m *MultiQueue) DelayBound(c *MultiClass, u, lmax int) (time.Duration, error) {
	if c == nil {
		return 0, ErrNilClass
	}
	m.mu.Lock()
	floor := m.place.Floor(c.shard)
	m.mu.Unlock()
	rate := floor
	if rate == 0 {
		rate = m.line / uint64(len(m.shards))
	}
	if rate == 0 {
		return 0, ErrNoLinkRate
	}
	return delayBound(c.cl.c.RSC(), u, lmax, rate)
}
