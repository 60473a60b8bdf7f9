package hfsc

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/intake"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/multi"
)

// PacedQueue runs H-FSC behind pacing goroutines and paces output at the
// configured line rate in real time — the software equivalent of the
// kernel qdisc + NIC pairing the paper's implementation lived in.
//
// A queue owns one or more shards. A shard is one Scheduler owned by one
// pacing goroutine that drains the shard's own intake rings. Intake is
// built for multi-producer scale: packets submitted from any goroutine
// land in sharded bounded MPSC ring buffers (one compare-and-swap per
// Submit, no locks) keyed by the packet's class, and the pacing goroutine
// drains them in batches. Per-class FIFO order is preserved; when the link
// falls behind schedule the transmit side recovers the deficit with one
// batched DequeueN call instead of paying the scheduler-entry cost per
// packet. A Submit to a full ring drops the packet immediately
// (DropIntakeFull) rather than blocking the producer.
//
// NewPacedQueue builds the one-shard queue around a caller's Scheduler;
// NewMultiQueue builds several shards so the scheduling work itself scales
// with cores. The partition follows the paper's admissibility condition,
// which composes: top-level classes (and their whole subtrees) are pinned
// to a shard when created, and each shard paces at a slice of the line
// rate that never drops below the shard's admitted sum of real-time
// curves, so Theorem 2 delay bounds hold per shard exactly as on a
// dedicated link of the slice's rate. What is traded away is
// packet-granular link-sharing across shards: a rebalancer re-divides only
// the excess bandwidth between shards from measured demand, so cross-shard
// fairness is epoch-granular.
//
// Class ids are computed, not looked up: a class's id is its shard-local
// id shifted left by the shard bits, with the shard index in the low bits
// (local<<b | shard, b = bits.Len(shards-1)). With one shard b is zero and
// the id is the scheduler's own. Ids are never reused, because no shard
// reuses local ids; an id whose shard bits name no shard is refused at
// Submit.
//
// The name-addressed admin surface (AddClass, RemoveClass, SetCurves,
// SetTemplate, EnsureClass, CollectIdle) is safe on a running queue: each
// call is routed to the owning shard's pacing goroutine. None of them may
// be called from Transmit, OnReject or a template's OnCollect — those run
// on a pacing goroutine and would deadlock waiting for it. Admin calls
// must not run concurrently with Start.
type PacedQueue struct {
	// Transmit is invoked for every departing packet, from its shard's
	// pacing goroutine — with several shards it must be safe for concurrent
	// use. It must not block for long: time spent here stalls the link.
	Transmit func(*Packet)

	// OnReject, when set, is invoked from the pacing goroutine for every
	// packet that was accepted at intake but refused by the scheduler at
	// drain time — most commonly DropUnknownClass when the packet's class
	// was removed (or garbage-collected) between Submit and drain, or
	// DropQueueLimit on a full class queue. Without it such packets are
	// only visible as drop counters. Like Transmit it must not block, and
	// it must not call back into the PacedQueue. Set before Start.
	OnReject func(*Packet, DropReason)

	// IntakeDepth sizes each of a shard's intake rings (one ring per CPU,
	// rounded up to a power of two); set it before the first Submit or
	// Start. Zero picks the default of 256 slots; other values are rounded
	// up to a power of two.
	IntakeDepth int

	// DrainHighWater caps the scheduler-side backlog each shard's drain
	// builds: once Backlog() reaches it, arrivals stay in the bounded
	// intake rings and producers feel backpressure (DropIntakeFull) there.
	// Without a cap a producer flood inflates the unbounded per-class FIFOs
	// faster than the link drains them — every packet a fresh pool miss,
	// the whole backlog live heap for the collector to scan. Class queue
	// limits still apply on top; this is a memory bound on the stage
	// between intake and the per-class queues. The cap is also the
	// scheduler's fairness window under sustained overload: link-sharing is
	// computed over the packets it holds, so hierarchies with more
	// congested leaves than the cap should raise it (and take the memory
	// hit). Zero picks the default (256 packets); negative disables the
	// cap. Set before Start.
	DrainHighWater int

	shards []*shard
	bits   uint   // shard bits of a class id
	line   uint64 // the whole link's rate, bytes/s

	// clk is the coarse clock the pacing loops publish once per pass.
	// Producers stamp spans from it, so a whole shaper pays one time.Now()
	// per pacing pass per shard rather than several per packet.
	clk coarseClock

	stop    chan struct{}
	mu      sync.Mutex // Start/Stop state only; the hot path is atomic
	started bool
	stopped bool

	// Counted per queue, not per shard, and published through shard 0's
	// metrics.
	dropStopped atomic.Uint64

	// Span sampling (Config.Spans): every spanEvery-th packet submitted to
	// the queue is stamped with its submit clock; the transmit side turns
	// the stamps into a latency decomposition. spanCtr numbers the
	// submitted packets, one Add per Submit or SubmitN batch. Every
	// producer writes it, so it has a cache line of its own.
	spanEvery uint64
	_         [cacheLine]byte
	spanCtr   atomic.Uint64
	_         [cacheLine - 8]byte

	// adminMu serializes the admin operations, so a name is created on at
	// most one shard. It is held across shard inspections, which placeMu —
	// taken by the shards' placement hooks on pacing goroutines — never is.
	adminMu sync.Mutex

	placeMu sync.Mutex
	place   *multi.Placement
	rebal   *multi.Rebalancer // nil with one shard
	// rebEvery is the rebalancing period: paceRebalanceEvery, which
	// tests shorten.
	rebEvery time.Duration
	rebDone  sync.WaitGroup
	floorBuf []uint64
	sentBuf  []int64
	backBuf  []int64
}

// shard is one Scheduler behind its own intake rings and pacing goroutine.
type shard struct {
	q    *PacedQueue
	idx  int
	s    *Scheduler
	rate atomic.Uint64 // pacing rate in bytes/s

	rings atomic.Pointer[intake.Queue] // built lazily on first Submit/Start

	wake chan struct{} // 1-slot doorbell, rung only while idle is set
	idle atomic.Bool   // pacing goroutine is (about to be) asleep
	done sync.WaitGroup

	sent      atomic.Uint64
	sentBytes atomic.Int64

	// Completion corrections queued for the pacing goroutine (Correct):
	// appended under corrMu from any goroutine, drained between scheduling
	// passes like inspections, with an atomic flag the loop polls.
	corrMu      sync.Mutex
	corrQ       []correction
	corrPending atomic.Bool
	// corrLoop (under corrMu) is set while the pacing goroutine is alive to
	// apply queued corrections: from Start until its exit flush.
	corrLoop bool

	// Inspect support: functions for the pacing goroutine to run between
	// scheduling passes, with a cheap pending flag the loop polls.
	inspectQ       chan inspection
	inspectPending atomic.Int32

	// EnsureClass's round trip through the pacing goroutine, built once so
	// creating a class allocates no closure or channel: ensureFn resolves
	// ensureName into ensureID/ensureErr and ensureDone carries its
	// completion. The queue's adminMu serializes every use.
	ensureFn   func(*Scheduler)
	ensureDone chan struct{}
	ensureName string
	ensureID   int
	ensureErr  error

	// gcAt is the clock (ns) of the next idle-class collection scan.
	// Owned by the pacing goroutine; see Scheduler.CollectIdle.
	gcAt int64
	// auditAt is the clock (ns) of the next stalled-backlog audit probe
	// (Config.Audit). Owned by the pacing goroutine, like gcAt.
	auditAt int64
}

const (
	// paceMaxBurst caps how many packets one loop iteration may transmit
	// when recovering schedule deficit (timer slack, a slow Transmit).
	paceMaxBurst = 32
	// paceDrainBatch sizes one intake drain call.
	paceDrainBatch = 64
	// paceMTU is the nominal work of one queued item when the rebalancer
	// turns an intake ring's depth into demand.
	paceMTU = 1500
	// paceAuditPeriod is how often the pacing loop runs the guarantee
	// auditor's stalled-backlog probe (Config.Audit). Coarse on purpose:
	// the probe exists to catch classes that stopped being served at all,
	// not to tighten per-packet checks.
	paceAuditPeriod = 100 * time.Millisecond
	// paceSpinWait is the longest pacing gap burned with a yield instead
	// of a timer park: Go timers cannot resolve waits this short, and at
	// multi-gigabit slice rates the inter-packet gap is well under it, so
	// parking would cost more than the wait itself.
	paceSpinWait = 50 * time.Microsecond
	// paceIdleSpin is how many yields an empty pass spends before arming
	// the timer + doorbell park, granted only while passes are carrying
	// traffic. Producers feeding a multi-shard shaper land a few packets
	// per shard per batch; without the spin every such sliver pays a full
	// park/unpark plus timer churn, which is exactly the per-shard edge
	// cost that makes sharding a loss on few cores. A drained queue
	// exhausts the budget in microseconds and parks as before.
	paceIdleSpin = 128
	// paceRebalanceEvery is the excess-bandwidth rebalancing period of a
	// multi-shard queue: how often the measured per-shard demand
	// re-divides the line rate beyond the guaranteed floors: four passes
	// per window of the one-second demand estimator.
	paceRebalanceEvery = 250 * time.Millisecond
	// paceDrainHighWater is the default DrainHighWater: eight full bursts —
	// enough backlog to keep the link busy through any pacing gap, small
	// enough that the working set of queued packets stays cache-resident
	// and pool-recycled. Measured on the saturation sweep (TBL-O4), this
	// is where multi-shard throughput stops paying collector tax: at 4096
	// the 8-shard point costs ~1.6x the per-packet cost of one shard; at
	// 256 the 4- and 8-shard points come in ahead of it.
	paceDrainHighWater = 256
)

// MultiConfig configures a multi-shard queue. The embedded Config applies
// to every shard (LinkRate is the whole link's line rate; each shard paces
// at its slice of it).
type MultiConfig struct {
	Config

	// Shards is the number of scheduler shards — independent Schedulers,
	// each behind its own pacing goroutine. 0 picks one per CPU rounded up
	// to a power of two; values are clamped to [1, 64]. With several
	// shards a rebalancer re-divides the line rate's excess between them
	// every 250 ms.
	Shards int
}

// NewPacedQueue builds the one-shard queue: it adopts s as shard 0, so
// class ids are s's own and s's existing classes and templates carry over.
// After Start, the Scheduler must not be used directly (the pacing
// goroutine owns it) until Stop returns; use Inspect.
func NewPacedQueue(s *Scheduler, transmit func(*Packet)) (*PacedQueue, error) {
	if s == nil || s.cfg.LinkRate == 0 {
		return nil, fmt.Errorf("hfsc: PacedQueue needs a scheduler with Config.LinkRate set")
	}
	if transmit == nil {
		return nil, fmt.Errorf("hfsc: PacedQueue needs a Transmit callback")
	}
	return newQueue([]*Scheduler{s}, transmit), nil
}

// NewMultiQueue builds a queue of cfg.Shards shards, each a fresh
// Scheduler with cfg.Config, over one link of cfg.LinkRate. A
// Config.AutoClass template is registered on every shard. Transmit is
// invoked from each shard's pacing goroutine, so with more than one shard
// it must be safe for concurrent use.
func NewMultiQueue(cfg MultiConfig, transmit func(*Packet)) (*PacedQueue, error) {
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
	n = min(n, multi.MaxShards)
	// The catch-all template is registered per shard below, with its
	// OnCollect translated to queue ids.
	shCfg := cfg.Config
	shCfg.AutoClass = nil
	scheds := make([]*Scheduler, n)
	for i := range scheds {
		scheds[i] = New(shCfg)
	}
	q := newQueue(scheds, transmit)
	if cfg.AutoClass != nil {
		for _, sh := range q.shards {
			sh.s.SetTemplate("", q.shardTemplate(sh.idx, *cfg.AutoClass))
		}
	}
	if n > 1 {
		q.rebal = multi.NewRebalancer(cfg.LinkRate, n)
		q.rebEvery = paceRebalanceEvery
		q.sentBuf = make([]int64, n)
		q.backBuf = make([]int64, n)
	}
	return q, nil
}

func newQueue(scheds []*Scheduler, transmit func(*Packet)) *PacedQueue {
	n := len(scheds)
	q := &PacedQueue{
		Transmit: transmit,
		bits:     uint(bits.Len(uint(n - 1))),
		line:     scheds[0].cfg.LinkRate,
		stop:     make(chan struct{}),
		place:    multi.NewPlacement(n),
	}
	if s := scheds[0]; s.cfg.Spans > 0 && s.agg != nil {
		q.spanEvery = uint64(s.cfg.Spans)
	}
	for i, s := range scheds {
		sh := &shard{
			q:          q,
			idx:        i,
			s:          s,
			wake:       make(chan struct{}, 1),
			inspectQ:   make(chan inspection, 8),
			ensureDone: make(chan struct{}, 1),
		}
		sh.ensureFn = func(s *Scheduler) {
			sh.ensureID = -1
			var w *Class
			if w, sh.ensureErr = s.EnsureClass(sh.ensureName, Now(time.Now())); sh.ensureErr == nil {
				sh.ensureID = q.globalID(sh.idx, w.ID())
			}
		}
		sh.rate.Store(q.line)
		s.onPlace = func(guarantee uint64, top, add bool) {
			q.placeMu.Lock()
			if add {
				q.place.Add(i, guarantee, top)
			} else {
				q.place.Remove(i, guarantee, top)
			}
			q.placeMu.Unlock()
		}
		// An adopted scheduler's existing classes count toward its floor.
		root := s.core.Root()
		for _, c := range s.core.Classes() {
			if c != root {
				s.place(c, c.Parent(), true)
			}
		}
		q.shards = append(q.shards, sh)
	}
	return q
}

// NumShards reports the shard count.
func (q *PacedQueue) NumShards() int { return len(q.shards) }

// globalID translates a shard-local class id to the queue's id space:
// local<<bits | shard. A one-shard queue's ids are its scheduler's own;
// with several shards each shard's root (local 0) and negative ids map
// to -1.
func (q *PacedQueue) globalID(shard, local int) int {
	if q.bits == 0 {
		return local
	}
	if local <= 0 {
		return -1
	}
	return local<<q.bits | shard
}

// remap is globalID in the form the snapshot mergers take.
func (q *PacedQueue) remap(shard, local int) (int, bool) {
	id := q.globalID(shard, local)
	return id, id >= 0
}

// shardOf returns the shard a class id names, or nil for a negative id or
// one whose shard bits name no shard.
func (q *PacedQueue) shardOf(id int) *shard {
	i := id & (1<<q.bits - 1)
	if id < 0 || i >= len(q.shards) {
		return nil
	}
	return q.shards[i]
}

// route validates a packet for Submit and returns its shard. Refusals are
// synchronous and counted in shard 0's metrics.
func (q *PacedQueue) route(p *Packet) (*shard, DropReason) {
	r := DropBadPacket
	if p != nil && p.Work() > 0 {
		if sh := q.shardOf(p.Class); sh != nil {
			return sh, DropNone
		}
		r = DropUnknownClass
	}
	if agg := q.shards[0].s.agg; agg != nil {
		agg.CountDrop(r, Now(time.Now()))
	}
	return nil, r
}

// intakeRings lazily builds the rings so an IntakeDepth set after
// construction still applies. Read-only paths (Stats, syncMetrics)
// load sh.rings directly instead, so a shard that never carried traffic
// never allocates its rings.
func (sh *shard) intakeRings() *intake.Queue {
	if r := sh.rings.Load(); r != nil {
		return r
	}
	r := intake.New(0, sh.q.IntakeDepth)
	if sh.rings.CompareAndSwap(nil, r) {
		return r
	}
	return sh.rings.Load()
}

// Start computes the initial rate slices and launches every shard's
// pacing goroutine and, with several shards, the rebalancer.
func (q *PacedQueue) Start() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started {
		return
	}
	q.started = true
	if q.rebal != nil {
		q.rebalance(Now(time.Now()))
	}
	for _, sh := range q.shards {
		sh.corrMu.Lock()
		sh.corrLoop = true
		sh.corrMu.Unlock()
		sh.done.Add(1)
		go sh.loop()
	}
	if q.rebal != nil {
		q.rebDone.Add(1)
		go q.rebalanceLoop()
	}
}

// Stop terminates the pacing goroutines (and the rebalancer) and waits for
// them; queued packets are discarded. Stop is idempotent. After Stop
// returns the Schedulers may be inspected again (e.g. Backlog) — the
// pacing goroutines are gone.
func (q *PacedQueue) Stop() {
	q.mu.Lock()
	if !q.started || q.stopped {
		q.mu.Unlock()
		return
	}
	q.stopped = true
	q.mu.Unlock()
	close(q.stop)
	q.rebDone.Wait()
	for _, sh := range q.shards {
		sh.done.Wait()
	}
}

// Submit hands a packet to the shaper from any goroutine and reports
// exactly what happened: DropNone on acceptance, DropBadPacket for a nil
// or zero-cost packet, DropUnknownClass for a negative class id or one
// whose shard bits name no shard, DropStopped after Stop, DropIntakeFull
// when the packet's intake ring was full (bounded-queue overflow: the
// packet is dropped, the producer never blocks). Acceptance means the
// packet reached the intake rings; scheduler-level refusals (unknown or
// removed class, queue limit) happen asynchronously on the pacing
// goroutine and are reported through OnReject and Snapshot. On any
// refusal the packet, with Packet.Class unchanged, stays with the caller.
func (q *PacedQueue) Submit(p *Packet) DropReason {
	sh, r := q.route(p)
	if r != DropNone {
		return r
	}
	if q.isStopped() {
		q.dropStopped.Add(1)
		return DropStopped
	}
	if q.spanEvery != 0 {
		q.maybeSpan(p, q.spanCtr.Add(1))
	}
	if !sh.push(p) {
		return DropIntakeFull // the ring counted the drop
	}
	sh.kick()
	return DropNone
}

// cacheLine is the cache-line size the span counter is padded to.
const cacheLine = 64

// push offers one packet to the shard's intake rings under its local id,
// without the stopped-check or doorbell. A refused packet gets its queue
// id back.
func (sh *shard) push(p *Packet) bool {
	id := p.Class
	p.Class = id >> sh.q.bits
	if !sh.intakeRings().Push(p.Class, p) {
		p.Class = id
		return false
	}
	return true
}

// maybeSpan stamps the n-th packet submitted to the queue with its submit
// clock when n is a multiple of spanEvery; the transmit side turns the
// stamp into a lifecycle span. The stamp comes from the coarse clock (one
// atomic load, no time.Now() on the producer path); before the pacing
// loop's first pass publishes a value it falls back to the real clock. A
// coarse stamp is never ahead of the drain pass that picks the packet up,
// so span components stay non-negative.
func (q *PacedQueue) maybeSpan(p *Packet, n uint64) {
	if n%q.spanEvery == 0 {
		if ts := q.clk.now(); ts != 0 {
			p.SubmitAt = ts
		} else {
			p.SubmitAt = Now(time.Now())
		}
	}
}

// SubmitN is the batch form of Submit: it offers the packets in order and
// stops at the first refusal, paying one stopped-check per batch and one
// doorbell ring per touched shard instead of per packet. It returns how
// many leading packets were accepted and why the batch stopped (DropNone
// when all of ps was accepted). Ownership of ps[:accepted] passes to the
// shaper; ps[accepted:] — including the refused packet itself — stays with
// the caller, which may retry or Release them. Packets after the first
// refusal are not attempted, so only the refusal itself is counted in the
// drop statistics.
func (q *PacedQueue) SubmitN(ps []*Packet) (accepted int, last DropReason) {
	if len(ps) == 0 {
		return 0, DropNone
	}
	if q.isStopped() {
		q.dropStopped.Add(1)
		return 0, DropStopped
	}
	// The batch's span numbers are taken in one Add; a refusal hands back
	// those of the packets it leaves unattempted, so a lone producer stamps
	// exactly the packets Submit one by one would.
	var base, span uint64
	if q.spanEvery != 0 {
		base = q.spanCtr.Add(uint64(len(ps))) - uint64(len(ps))
		span = base
	}
	var touched uint64 // the shard count is clamped to 64
	for i, p := range ps {
		sh, r := q.route(p)
		if r == DropNone {
			if q.spanEvery != 0 {
				span++
				q.maybeSpan(p, span)
			}
			if !sh.push(p) {
				r = DropIntakeFull // the ring counted the drop
			}
		}
		if r != DropNone {
			if back := uint64(len(ps)) - (span - base); q.spanEvery != 0 && back > 0 {
				q.spanCtr.Add(-back)
			}
			q.kick(touched)
			return i, r
		}
		touched |= 1 << uint(sh.idx)
	}
	q.kick(touched)
	return len(ps), DropNone
}

// kick rings the doorbell of every shard in the touched bitmask.
func (q *PacedQueue) kick(touched uint64) {
	for touched != 0 {
		i := bits.TrailingZeros64(touched)
		touched &^= 1 << i
		q.shards[i].kick()
	}
}

// correction is one queued Correct call.
type correction struct {
	class     int
	estimated int64
	actual    int64
	crit      Criterion
}

// Correct reconciles a completed work item's actual cost with the
// estimate it was scheduled (and paced) under — see Scheduler.Correct for
// the semantics. class is the leaf class id the item was submitted to and
// crit the criterion that served it (Packet.Crit at Transmit). Safe from
// any goroutine: the adjustment is queued and applied by the owning
// shard's pacing goroutine between scheduling passes, so it is
// asynchronous — Snapshot may lag a Correct by one pass; during Stop the
// pacing goroutine's exit flush applies it, so it is in place when Stop
// returns (this also makes Correct safe from Transmit while the queue
// stops). On a queue whose pacing goroutines are not running the
// adjustment is applied inline (callers must then serialize with other
// direct Scheduler use, as with Inspect). Unknown and removed classes are
// ignored.
func (q *PacedQueue) Correct(class int, estimated, actual int64, crit Criterion) {
	if estimated < 0 || actual < 0 || estimated == actual {
		return
	}
	sh := q.shardOf(class)
	if sh == nil {
		return
	}
	sh.corrMu.Lock()
	sh.corrQ = append(sh.corrQ, correction{class >> q.bits, estimated, actual, crit})
	sh.corrPending.Store(true)
	queued := sh.corrLoop
	sh.corrMu.Unlock()
	if queued {
		sh.kick()
		return
	}
	sh.done.Wait() // the loop has flushed; let it finish winding down
	sh.serveCorrections(Now(time.Now()))
}

// CorrectClass is Correct addressed by class name; unlike Correct's
// silent ignore it reports an unknown name with ErrUnknownClass.
func (q *PacedQueue) CorrectClass(name string, estimated, actual int64, crit Criterion) error {
	id, ok := q.ClassID(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClass, name)
	}
	q.Correct(id, estimated, actual, crit)
	return nil
}

// serveCorrections applies every queued correction at clock nowNs and
// publishes the staged events, corrections included. Called from the
// pacing goroutine (loop body and exit path), and inline by Correct on a
// queue that is not running; corrMu is held across the scheduler calls so
// inline callers serialize with each other.
func (sh *shard) serveCorrections(nowNs int64) {
	sh.corrMu.Lock()
	defer sh.corrMu.Unlock()
	sh.corrPending.Store(false)
	for _, c := range sh.corrQ {
		sh.s.correctByID(c.class, c.estimated, c.actual, c.crit, nowNs)
	}
	sh.corrQ = sh.corrQ[:0]
	sh.s.publish()
}

// isStopped reports whether Stop has been called.
func (q *PacedQueue) isStopped() bool {
	select {
	case <-q.stop:
		return true
	default:
		return false
	}
}

// kick rings the doorbell if the pacing goroutine is (about to be) asleep.
func (sh *shard) kick() {
	if sh.idle.Load() {
		select {
		case sh.wake <- struct{}{}:
		default: // doorbell already rung
		}
	}
}

// PacedStats is a snapshot of the driver's own counters (the scheduler's
// per-class metrics live in Snapshot). New fields may be added; existing
// ones keep their meaning.
type PacedStats struct {
	// SentPackets and SentBytes count packets handed to Transmit.
	SentPackets uint64
	SentBytes   int64
	// DropsIntakeFull counts Submits refused because the packet's intake
	// ring was full; DropsStopped counts Submits after Stop.
	DropsIntakeFull uint64
	DropsStopped    uint64
	// IntakeBacklog is the number of packets currently buffered in the
	// intake rings (approximate while producers are active).
	IntakeBacklog int
	// ShardHighWater holds each intake ring's deepest backlog observed at a
	// drain: shard 0's rings first, then shard 1's, and so on.
	ShardHighWater []int64
	// Rate is the current pacing rate (bytes/s) and GuaranteedRate the
	// admitted real-time floor (the sup-rate sum of the real-time curves)
	// it never drops below; for the whole queue, the sums over shards.
	Rate           uint64
	GuaranteedRate uint64
	// Shards is the per-shard breakdown of a multi-shard queue, nil with
	// one shard. DropsStopped is counted per queue and is zero in the
	// shard entries.
	Shards []PacedStats
}

// Drops returns the total packets refused at intake, all reasons.
func (st PacedStats) Drops() uint64 {
	return st.DropsIntakeFull + st.DropsStopped
}

// Stats snapshots the driver counters. Safe from any goroutine; the hot
// paths it reads are all atomics. On a queue that never carried traffic
// (no Submit, no Start) it returns zero-valued counters without building
// the intake rings.
func (q *PacedQueue) Stats() PacedStats {
	st := PacedStats{DropsStopped: q.dropStopped.Load()}
	if len(q.shards) > 1 {
		st.Shards = make([]PacedStats, len(q.shards))
	}
	for i, sh := range q.shards {
		one := PacedStats{
			SentPackets: sh.sent.Load(),
			SentBytes:   sh.sentBytes.Load(),
			Rate:        sh.rate.Load(),
		}
		q.placeMu.Lock()
		one.GuaranteedRate = q.place.Floor(i)
		q.placeMu.Unlock()
		if r := sh.rings.Load(); r != nil {
			one.DropsIntakeFull = r.Drops()
			one.IntakeBacklog = r.Depth()
			one.ShardHighWater = r.HighWater()
		}
		if st.Shards != nil {
			st.Shards[i] = one
		}
		st.SentPackets += one.SentPackets
		st.SentBytes += one.SentBytes
		st.DropsIntakeFull += one.DropsIntakeFull
		st.IntakeBacklog += one.IntakeBacklog
		st.Rate += one.Rate
		st.GuaranteedRate += one.GuaranteedRate
		st.ShardHighWater = append(st.ShardHighWater, one.ShardHighWater...)
	}
	return st
}

// syncMetrics publishes the driver-level intake drop totals into the
// shard's metrics aggregator so /metrics reports intake loss next to
// queue-limit loss. Cheap and idempotent (totals are monotonic).
func (sh *shard) syncMetrics() {
	agg := sh.s.agg
	if agg == nil {
		return
	}
	var full, stopped uint64
	if r := sh.rings.Load(); r != nil {
		full = r.Drops()
	}
	if sh.idx == 0 {
		stopped = sh.q.dropStopped.Load()
	}
	agg.RecordIntake(full, stopped, Now(time.Now()))
	sh.s.syncFlight()
}

// FlightRecorder returns a one-shard queue's event ring (nil when
// Config.Flight is off, and on a multi-shard queue — use FlightEvents for
// the merged view). Reading it is safe while the queue runs.
func (q *PacedQueue) FlightRecorder() *FlightRecorder {
	if len(q.shards) > 1 {
		return nil
	}
	return q.shards[0].s.rec
}

// Snapshot copies the scheduler metrics (nil when created without
// Config.Metrics), after folding in the driver's intake drop counters.
// With several shards the per-shard snapshots are merged, class ids in the
// queue's id space, audit verdicts included. Unlike a Scheduler, which
// the pacing goroutine owns after Start, this is safe to call from any
// goroutine: it reads only the metrics aggregators and atomics. It
// reflects every event up to each pacing goroutine's last publish — at
// most one pacing pass behind, and current inside Transmit and OnReject.
func (q *PacedQueue) Snapshot() *Snapshot {
	if q.shards[0].s.agg == nil {
		return nil
	}
	if len(q.shards) == 1 {
		q.shards[0].syncMetrics()
		return q.shards[0].s.Snapshot()
	}
	snaps := make([]*metrics.Snapshot, len(q.shards))
	audits := make([]*audit.Snapshot, len(q.shards))
	for i, sh := range q.shards {
		sh.syncMetrics()
		snaps[i] = sh.s.Snapshot()
		audits[i] = snaps[i].Audit
	}
	merged := metrics.MergeSnapshots(snaps, q.remap)
	if q.shards[0].s.aud != nil {
		merged.Audit = audit.Merge(audits, q.remap)
	}
	return merged
}

// AuditSnapshot copies the online guarantee auditor's verdicts (nil when
// created without Config.Audit), merged across shards under queue ids.
// Safe from any goroutine while the queue runs: it reads only the
// auditors' own state.
func (q *PacedQueue) AuditSnapshot() *AuditSnapshot {
	if len(q.shards) == 1 || q.shards[0].s.aud == nil {
		return q.shards[0].s.AuditSnapshot()
	}
	snaps := make([]*audit.Snapshot, len(q.shards))
	for i, sh := range q.shards {
		snaps[i] = sh.s.AuditSnapshot()
	}
	return audit.Merge(snaps, q.remap)
}

// WriteMetrics renders the metrics in Prometheus text format
// (ErrMetricsDisabled without Config.Metrics), intake drops included.
// Safe from any goroutine, like Snapshot — wire it straight into an HTTP
// /metrics handler.
func (q *PacedQueue) WriteMetrics(w io.Writer) error {
	snap := q.Snapshot()
	if snap == nil {
		return ErrMetricsDisabled
	}
	return metrics.WritePrometheus(w, snap)
}

func (sh *shard) loop() {
	defer sh.done.Done()
	// Serve inspections that arrived too late for the loop body: any
	// Inspect that enqueued before Stop flipped stopped (both under q.mu)
	// has its closure in the channel by the time the loop exits. Pending
	// corrections are flushed first so inspections see reconciled state.
	defer sh.serveInspect()
	defer func() {
		sh.s.publish() // the last pass's events
		sh.corrMu.Lock()
		sh.corrLoop = false // later Corrects apply inline
		sh.corrMu.Unlock()
		if sh.corrPending.Load() {
			sh.serveCorrections(Now(time.Now()))
		}
	}()
	q, s := sh.q, sh.s
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	rings := sh.intakeRings()
	// drainCap bounds one drain sweep to a full lap of the rings so a
	// sustained producer flood cannot starve the transmit side.
	drainCap := rings.Cap()
	linkFree := time.Now()
	// Running average work per transmitted item (cost units); the
	// deficit-recovery burst size is derived from it so the budget tracks
	// what items actually cost on this shard. Zero until the first
	// transmit seeds it: no guess serves both packets and cost-denominated
	// work items (a 40 ms request on 32 seats is 4·10⁷ units), and a guess
	// too small would turn microseconds of slack into a flood of them.
	avgWork := int64(0)
	burst := make([]*Packet, 0, paceMaxBurst)
	buf := make([]*Packet, 0, paceDrainBatch)
	spin := 0 // idle yields left before the loop parks

	for {
		// The spin paths below bypass sleep — the only other place the
		// stop signal is observed — so a loaded loop must poll it here.
		if q.isStopped() {
			return
		}
		if sh.inspectPending.Load() > 0 {
			sh.serveInspect()
		}
		// The pass's single clock read: everything this pass stamps —
		// arrivals, spans, flight events, transmits — uses this value.
		now := time.Now()
		nowNs := Now(now)
		q.clk.advance(nowNs)
		if sh.corrPending.Load() {
			sh.serveCorrections(nowNs)
		}
		// Idle-class collection rides the pacing loop like corrections do:
		// no lock enters the hot path, and a scan can never interleave with
		// scheduling. The arm-check is one map-length read.
		if s.lcArmed() && nowNs >= sh.gcAt {
			s.CollectIdle(nowNs)
			sh.gcAt = nowNs + s.lcPeriod()
		}
		// The auditor's stalled-backlog probe rides the loop the same way,
		// so a class whose service stops entirely still fails checks.
		if s.aud != nil && nowNs >= sh.auditAt {
			s.auditTick(nowNs)
			sh.auditAt = nowNs + int64(paceAuditPeriod)
		}
		var drained int
		buf, drained = sh.drainIntake(rings, buf, nowNs, drainCap)
		if drained > 0 {
			spin = paceIdleSpin
		}

		// Respect the transmission time of what already left.
		if now.Before(linkFree) {
			if linkFree.Sub(now) < paceSpinWait {
				runtime.Gosched()
				continue
			}
			if !sh.sleep(timer, linkFree.Sub(now), rings, &buf, nowNs, false) {
				return
			}
			continue
		}

		// Steady state sends packet by packet; when the loop is behind
		// schedule (timer slack, a slow Transmit) it recovers the deficit
		// with one batched DequeueN call.
		rate := sh.rate.Load()
		want := 1
		if behind := now.Sub(linkFree); behind > 0 && avgWork > 0 {
			if owed := int(uint64(behind) * rate / (uint64(avgWork) * uint64(time.Second))); owed > 1 {
				want = min(owed, paceMaxBurst)
			}
		}
		burst = s.dequeueN(nowNs, want, burst[:0])
		if len(burst) == 0 {
			// Idle (empty or upper-limit bound): an idle link accrues no
			// transmission credit.
			linkFree = now
			if spin > 0 {
				// Recent passes carried traffic; odds are another sliver
				// of a batch is a yield away. Parking here would charge a
				// full park/unpark to the next few packets.
				spin--
				runtime.Gosched()
				continue
			}
			wait := time.Hour
			if t, ok := s.NextReady(nowNs); ok {
				wait = time.Duration(t - nowNs)
				if wait <= 0 {
					wait = time.Microsecond
				}
			}
			// An armed collector bounds the park so idle classes are still
			// collected on an otherwise silent link.
			if s.lcArmed() {
				if d := time.Duration(sh.gcAt - nowNs); d < wait {
					if d <= 0 {
						d = time.Millisecond
					}
					wait = d
				}
			}
			// A backlogged auditor bounds it too: a stalled class must keep
			// failing probes even when the link itself has nothing to send
			// (e.g. everything is deferred by an upper limit).
			if s.aud != nil && s.Backlog() > 0 {
				if d := time.Duration(sh.auditAt - nowNs); d < wait {
					if d <= 0 {
						d = time.Millisecond
					}
					wait = d
				}
			}
			if !sh.sleep(timer, wait, rings, &buf, nowNs, true) {
				return
			}
			continue
		}
		spin = paceIdleSpin

		// Read the cost (and span/flight identity) before Transmit:
		// ownership passes with the call, and a pooled packet may be
		// Released (and reused) inside the callback. The transmit stamp is
		// pass-granular: the pass's one clock read, the same one the
		// dequeue was stamped with.
		var total int64
		for _, p := range burst {
			total += p.Work()
			if p.SubmitAt != 0 {
				sh.observeSpan(p, nowNs)
			}
			if s.rec != nil {
				s.stage.Trace(core.EvTransmit, s.core.ClassByID(p.Class), p, nowNs, 0)
			}
		}
		// The pass's one publish: inside Transmit, Snapshot and the flight
		// recorder already hold every dequeue and transmit of this burst.
		// Transmit sees the queue's class id.
		s.publish()
		for _, p := range burst {
			p.Class = p.Class<<q.bits | sh.idx
			q.Transmit(p)
		}
		sh.sent.Add(uint64(len(burst)))
		sh.sentBytes.Add(total)
		if per := total / int64(len(burst)); per > 0 {
			if avgWork == 0 {
				avgWork = per
			} else {
				avgWork = (7*avgWork + per) / 8
			}
		}
		// Schedule the next transmission from when the link actually
		// freed, not from now: charging the timer-park overshoot to the
		// schedule on every pass would shave real capacity (items whose
		// cost dwarfs the overshoot make the loss visible — want stays 1,
		// so no burst recovers it). The carried debt is capped at one
		// recovery burst so a long stall does not release an unpaced
		// flood.
		start := linkFree
		if debtCap := time.Duration(float64(paceMaxBurst) * float64(avgWork) / float64(rate) * float64(time.Second)); now.Sub(linkFree) > debtCap {
			start = now.Add(-debtCap)
		}
		linkFree = start.Add(time.Duration(total * int64(time.Second) / int64(rate)))
	}
}

// observeSpan folds one sampled packet's lifecycle into the aggregator's
// latency decomposition and clears the stamp before ownership passes to
// Transmit: intake wait (submit → intake drain, the Arrival stamp) and
// queue delay (enqueue → dequeue and transmit at nowNs, including
// pacing-induced waiting).
func (sh *shard) observeSpan(p *Packet, nowNs int64) {
	submitAt := p.SubmitAt
	p.SubmitAt = 0
	if sh.s.agg == nil {
		return
	}
	sh.s.agg.ObserveSpan(p.Arrival-submitAt, nowNs-p.Arrival, nowNs)
}

// Inspect runs fn with exclusive access to each shard's Scheduler in turn
// (one call per shard): on a running queue the shard's pacing goroutine
// executes it between scheduling passes (Inspect blocks until done); on a
// queue that is not running it runs inline after any previous run has
// fully wound down. This is how live tree snapshots (DumpTree) read
// virtual times and backlogs without a data race. The Scheduler's class
// ids are shard-local. fn must not call back into the PacedQueue and must
// be quick — the shard's link is stalled while it runs. Inspect must not
// be called concurrently with Start.
func (q *PacedQueue) Inspect(fn func(s *Scheduler)) {
	for _, sh := range q.shards {
		sh.inspect(fn)
	}
}

// inspection is one queued Inspect: the pacing goroutine runs fn, then
// sends once on done (capacity 1) to release the caller.
type inspection struct {
	fn   func(*Scheduler)
	done chan struct{}
}

func (sh *shard) inspect(fn func(s *Scheduler)) {
	sh.inspectWith(fn, make(chan struct{}, 1))
}

// inspectWith is inspect with a caller-supplied done channel (capacity 1,
// empty), which is empty again when it returns.
func (sh *shard) inspectWith(fn func(s *Scheduler), done chan struct{}) {
	q := sh.q
	q.mu.Lock()
	if !q.started || q.stopped {
		q.mu.Unlock()
		sh.done.Wait() // a stopped loop may still be winding down
		fn(sh.s)
		return
	}
	sh.inspectPending.Add(1)
	// Send under q.mu: this orders the send before any Stop (which also
	// takes q.mu), so the loop's exit drain is guaranteed to see it. A
	// full channel blocks here, but an earlier Inspect has then already
	// rung the doorbell, so the loop is on its way to drain.
	sh.inspectQ <- inspection{fn: fn, done: done}
	q.mu.Unlock()
	sh.kick()
	<-done
}

// serveInspect runs every queued inspection, each after a publish so it
// sees every event so far. Called only from the pacing goroutine (loop
// body and exit path).
func (sh *shard) serveInspect() {
	for {
		select {
		case in := <-sh.inspectQ:
			sh.inspectPending.Add(-1)
			sh.s.publish()
			in.fn(sh.s)
			in.done <- struct{}{}
		default:
			return
		}
	}
}

// The name-addressed admin surface: the lifecycle operations the
// Scheduler exposes, routed to the owning shard's pacing goroutine.

// lookup finds the shard holding the named class and its local id,
// lock-free through each shard's name registry.
func (q *PacedQueue) lookup(name string) (*shard, int, bool) {
	for _, sh := range q.shards {
		if id, ok := sh.s.ClassID(name); ok {
			return sh, id, true
		}
	}
	return nil, 0, false
}

// ClassID resolves a class name to the id to place in Packet.Class. Safe
// from any goroutine and lock-free — this is the submit-by-name fast path.
// The id may be retired concurrently by RemoveClass or the idle
// collector; packets to it are then refused through OnReject.
func (q *PacedQueue) ClassID(name string) (int, bool) {
	sh, id, ok := q.lookup(name)
	if !ok {
		return 0, false
	}
	return q.globalID(sh.idx, id), true
}

// shardFor picks the shard a new class under parent lands on: the
// parent's, or for a top-level class ("") the one placement balances
// guaranteed load onto.
func (q *PacedQueue) shardFor(parent string) (*shard, bool) {
	if parent == "" {
		q.placeMu.Lock()
		defer q.placeMu.Unlock()
		return q.shards[q.place.Pick()], true
	}
	sh, _, ok := q.lookup(parent)
	return sh, ok
}

// AddClass creates a class under the named parent ("" = the link root),
// before or after Start, returning the new class's id for Packet.Class.
// A top-level class is pinned to the shard placement picks; children land
// on their parent's shard, so each top-level subtree lives inside one
// scheduler. Fails with ErrUnknownClass when the parent does not exist
// and ErrDuplicateClass when the name is taken on any shard.
func (q *PacedQueue) AddClass(parent, name string, cfg ClassConfig) (int, error) {
	q.adminMu.Lock()
	defer q.adminMu.Unlock()
	if _, _, dup := q.lookup(name); dup {
		return -1, fmt.Errorf("%w %q", ErrDuplicateClass, name)
	}
	sh, ok := q.shardFor(parent)
	if !ok {
		return -1, fmt.Errorf("%w: parent %q", ErrUnknownClass, parent)
	}
	id := -1
	var err error
	sh.inspect(func(s *Scheduler) {
		var p *Class
		if parent != "" {
			if p = s.Class(parent); p == nil {
				err = fmt.Errorf("%w: parent %q", ErrUnknownClass, parent)
				return
			}
		}
		var w *Class
		if w, err = s.AddClass(p, name, cfg); err == nil {
			id = q.globalID(sh.idx, w.ID())
		}
	})
	return id, err
}

// withClass runs fn on the named class on its shard's pacing goroutine,
// failing with ErrUnknownClass when no shard holds the name.
func (q *PacedQueue) withClass(name string, fn func(sh *shard, w *Class) error) error {
	q.adminMu.Lock()
	defer q.adminMu.Unlock()
	err := fmt.Errorf("%w: %q", ErrUnknownClass, name)
	if sh, _, ok := q.lookup(name); ok {
		sh.inspect(func(s *Scheduler) {
			if w := s.Class(name); w != nil { // else collected since the lookup
				err = fn(sh, w)
			}
		})
	}
	return err
}

// RemoveClass deletes the named class while the queue runs. Fails with
// ErrUnknownClass for an unknown name, ErrHasChildren for an interior
// class and ErrClassBusy while the class still holds packets or in-tree
// scheduling state. The retired id is never reused; packets for it still
// in the intake rings are refused at drain time (see OnReject). The
// shard's placement floor drops by the class's guarantee.
func (q *PacedQueue) RemoveClass(name string) error {
	return q.withClass(name, func(sh *shard, w *Class) error { return sh.s.RemoveClass(w) })
}

// SetCurves replaces the named class's curves while the queue runs — live,
// even mid-backlog (see Scheduler.SetCurves for the semantics); the
// shard's placement floor moves with the real-time curve. Fails with
// ErrUnknownClass for an unknown name and ErrClassBusy when the change
// would alter curve presence on an active class.
func (q *PacedQueue) SetCurves(name string, cfg ClassConfig) error {
	return q.withClass(name, func(sh *shard, w *Class) error {
		return sh.s.SetCurves(w, cfg, Now(time.Now()))
	})
}

// DelayBound mirrors Scheduler.DelayBound for the named leaf: per
// Theorems 1 and 2 the bound is its real-time curve's time to deliver u
// bytes plus one maximum packet's transmission time at the rate its shard
// never paces below — the line rate with one shard, else the shard's
// guaranteed floor (an equal split of the line while the floor is zero).
func (q *PacedQueue) DelayBound(name string, u, lmax int) (time.Duration, error) {
	var rsc SC
	var idx int
	err := q.withClass(name, func(sh *shard, w *Class) error {
		rsc, idx = w.c.RSC(), sh.idx
		return nil
	})
	if err != nil {
		return 0, err
	}
	rate := q.line
	if len(q.shards) > 1 {
		q.placeMu.Lock()
		if f := q.place.Floor(idx); f > 0 {
			rate = f
		} else {
			rate /= uint64(len(q.shards))
		}
		q.placeMu.Unlock()
	}
	return delayBound(rsc, u, lmax, rate)
}

// Admissible verifies the composed schedulability condition: the summed
// per-shard guaranteed floors (each the sup-rate sum of its admitted
// real-time curves) must fit in the line rate. This is slightly
// conservative versus Scheduler.Admissible — sup-rates bound the exact
// curve sum from above — which is the price of giving each shard an
// independently checkable slice.
func (q *PacedQueue) Admissible() error {
	q.placeMu.Lock()
	total := q.place.TotalFloor()
	q.placeMu.Unlock()
	if total > q.line {
		return fmt.Errorf("%w (guaranteed floors %d B/s exceed line %d B/s)",
			ErrInadmissible, total, q.line)
	}
	return nil
}

// SetTemplate registers (or replaces) a class template (see
// Scheduler.SetTemplate) on every shard while the queue runs. Names it
// creates are placed like AddClass ones; OnCollect runs on the owning
// shard's pacing goroutine with the retired queue id.
func (q *PacedQueue) SetTemplate(prefix string, tpl ClassTemplate) {
	q.adminMu.Lock()
	defer q.adminMu.Unlock()
	for _, sh := range q.shards {
		shTpl := q.shardTemplate(sh.idx, tpl)
		sh.inspect(func(s *Scheduler) { s.SetTemplate(prefix, shTpl) })
	}
}

// shardTemplate adapts a template for one shard: its OnCollect receives
// queue ids, not the shard's local ones.
func (q *PacedQueue) shardTemplate(shard int, tpl ClassTemplate) ClassTemplate {
	if f := tpl.OnCollect; f != nil && q.bits > 0 {
		tpl.OnCollect = func(name string, id int) { f(name, q.globalID(shard, id)) }
	}
	return tpl
}

// EnsureClass resolves the named class, creating it from the matching
// template if needed, and returns its id: on the template parent's shard,
// or for a top-level template on the shard placement picks. This is
// SubmitTo's slow path, exposed for callers that want the id (or the
// error) before submitting.
func (q *PacedQueue) EnsureClass(name string) (int, error) {
	q.adminMu.Lock()
	defer q.adminMu.Unlock()
	if sh, id, ok := q.lookup(name); ok {
		return q.globalID(sh.idx, id), nil
	}
	// Every shard carries the same templates, and adminMu orders this
	// read after the inspections that registered them.
	parent := ""
	if tpl, ok := matchTpl(q.shards[0].s.tpls, name); ok {
		parent = tpl.Parent
	}
	sh, ok := q.shardFor(parent)
	if !ok {
		return -1, fmt.Errorf("%w: template parent %q", ErrUnknownClass, parent)
	}
	sh.ensureName = name
	sh.inspectWith(sh.ensureFn, sh.ensureDone)
	id, err := sh.ensureID, sh.ensureErr
	sh.ensureName, sh.ensureErr = "", nil
	return id, err
}

// CollectIdle forces an idle-class collection scan on every shard now,
// returning how many classes were collected. The pacing goroutines run
// scans on their own schedule; this exists for tests and admin endpoints
// that need a deterministic point-in-time sweep.
func (q *PacedQueue) CollectIdle() int {
	n := 0
	q.Inspect(func(s *Scheduler) { n += s.CollectIdle(Now(time.Now())) })
	return n
}

// SubmitTo submits by class name: the common case is one lock-free name
// lookup on top of Submit, and an unknown name is auto-created from the
// matching template (Config.AutoClass / SetTemplate) before submitting —
// the first packet of a new flow pays the creation, every later one takes
// the fast path. DropUnknownClass means no template matched the name (or
// the template refused it); the packet stays with the caller.
func (q *PacedQueue) SubmitTo(name string, p *Packet) DropReason {
	if id, ok := q.ClassID(name); ok {
		p.Class = id
		return q.Submit(p)
	}
	if q.isStopped() { // Inspect on a stopped queue would run inline, unserialized
		q.dropStopped.Add(1)
		return DropStopped
	}
	id, err := q.EnsureClass(name)
	if err != nil {
		return DropUnknownClass
	}
	p.Class = id
	return q.Submit(p)
}

func (q *PacedQueue) rebalanceLoop() {
	defer q.rebDone.Done()
	t := time.NewTicker(q.rebEvery)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case now := <-t.C:
			q.rebalance(Now(now))
		}
	}
}

// rebalance re-divides the line rate between shards: guaranteed floors
// always, excess by measured demand (EWMA service rate plus intake
// backlog).
func (q *PacedQueue) rebalance(now int64) {
	q.placeMu.Lock()
	defer q.placeMu.Unlock()
	q.floorBuf = q.place.Floors(q.floorBuf)
	for i, sh := range q.shards {
		q.sentBuf[i] = sh.sentBytes.Load()
		q.backBuf[i] = 0
		if r := sh.rings.Load(); r != nil {
			q.backBuf[i] = int64(r.Depth()) * paceMTU
		}
	}
	for i, rate := range q.rebal.Slices(now, q.sentBuf, q.backBuf, q.floorBuf) {
		if rate > 0 {
			q.shards[i].rate.Store(rate)
		}
	}
}

// drainIntake moves buffered arrivals into the scheduler at clock nowNs,
// which the enqueue stamps as the arrival of each packet the submitter
// left unstamped, so queueing-delay metrics measure from intake. At most
// limit packets per call. Their events are staged, not published, except
// before an OnReject call.
func (sh *shard) drainIntake(rings *intake.Queue, buf []*Packet, nowNs int64, limit int) ([]*Packet, int) {
	q, s := sh.q, sh.s
	if hw := q.drainHW(); hw > 0 {
		if room := hw - s.Backlog(); room < limit {
			limit = room
		}
	}
	drained := 0
	for drained < limit {
		buf = rings.Drain(buf[:0], min(paceDrainBatch, limit-drained))
		if len(buf) == 0 {
			break
		}
		for _, p := range buf {
			if r := s.offer(p, nowNs); r != DropNone && q.OnReject != nil {
				s.publish() // OnReject sees the drop counted
				p.Class = p.Class<<q.bits | sh.idx
				q.OnReject(p, r)
			}
		}
		drained += len(buf)
	}
	return buf, drained
}

// drainHW resolves the DrainHighWater setting: 0 → default, <0 → no cap.
func (q *PacedQueue) drainHW() int {
	switch hw := q.DrainHighWater; {
	case hw > 0:
		return hw
	case hw < 0:
		return 0
	default:
		return paceDrainHighWater
	}
}

// sleep parks the pacing goroutine for at most d, waking early on Stop or
// on a Submit doorbell. Before parking it re-drains the rings: a producer
// that pushed before observing the idle flag rings no doorbell, so the
// final drain (sequenced after the flag store) is what catches it. When
// bailOnArrival is set (the scheduler was idle) a late arrival returns
// immediately instead of parking; otherwise (the link is busy) arrivals
// are enqueued and the wait continues. Arrivals caught by the pre-park
// drain are stamped with the caller's pass clock (nowNs) — no extra
// time.Now(). A pending Inspect or Correct, checked after the flag store
// for the same reason, returns at once. Returns false on Stop.
func (sh *shard) sleep(timer *time.Timer, d time.Duration, rings *intake.Queue, buf *[]*Packet, nowNs int64, bailOnArrival bool) bool {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(d)
	select {
	case <-sh.wake: // clear a stale doorbell; the drain below catches its packet
	default:
	}
	sh.idle.Store(true)
	defer sh.idle.Store(false)
	// An Inspect or Correct whose kick ran before idle was set rang no
	// doorbell; it is visible here instead, so serve it rather than park.
	if sh.inspectPending.Load() > 0 || sh.corrPending.Load() {
		return true
	}
	var drained int
	*buf, drained = sh.drainIntake(rings, *buf, nowNs, rings.Cap())
	if bailOnArrival && drained > 0 {
		return true
	}
	sh.s.publish() // nothing staged waits out the park
	select {
	case <-sh.q.stop:
		return false
	case <-timer.C:
		return true
	case <-sh.wake:
		return true
	}
}
