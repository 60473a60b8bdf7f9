package hfsc

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/intake"
)

// PacedQueue runs a Scheduler behind a single goroutine and paces output
// at the configured line rate in real time — the software equivalent of
// the kernel qdisc + NIC pairing the paper's implementation lived in.
//
// Intake is built for multi-producer scale: packets submitted from any
// goroutine land in sharded bounded MPSC ring buffers (one compare-and-
// swap per Submit, no locks) keyed by the packet's class, and the pacing
// goroutine drains them in batches. Per-class FIFO order is preserved;
// when the link falls behind schedule the transmit side recovers the
// deficit with one batched DequeueN call instead of paying the
// scheduler-entry cost per packet. A Submit to a full shard drops the
// packet immediately (DropIntakeFull) rather than blocking the producer.
type PacedQueue struct {
	// Transmit is invoked for every departing packet, from the pacing
	// goroutine. It must not block for long: time spent here stalls the
	// link.
	Transmit func(*Packet)

	// OnReject, when set, is invoked from the pacing goroutine for every
	// packet that was accepted at intake but refused by the scheduler at
	// drain time — most commonly DropUnknownClass when the packet's class
	// was removed (or garbage-collected) between Submit and drain, or
	// DropQueueLimit on a full class queue. Without it such packets are
	// only visible as drop counters. Like Transmit it must not block, and
	// it must not call back into the PacedQueue. Set before Start.
	OnReject func(*Packet, DropReason)

	// IntakeShards and IntakeDepth tune the intake rings; set them before
	// the first Submit or Start. Zero picks the defaults (one shard per
	// CPU rounded up to a power of two, 256 slots per shard); both are
	// rounded up to powers of two.
	IntakeShards int
	IntakeDepth  int

	// DrainHighWater caps the scheduler-side backlog the drain builds: once
	// Backlog() reaches it, arrivals stay in the bounded intake rings and
	// producers feel backpressure (DropIntakeFull) there. Without a cap a
	// producer flood inflates the unbounded per-class FIFOs faster than the
	// link drains them — every packet a fresh pool miss, the whole backlog
	// live heap for the collector to scan. Class queue limits still apply
	// on top; this is a memory bound on the stage between intake and the
	// per-class queues. The cap is also the scheduler's fairness window
	// under sustained overload: link-sharing is computed over the packets
	// it holds, so hierarchies with more congested leaves than the cap
	// should raise it (and take the memory hit). Zero picks the default
	// (256 packets); negative disables the cap. Set before Start.
	DrainHighWater int

	s    *Scheduler
	rate atomic.Uint64 // pacing rate in bytes/s; see SetRate

	// clk is the coarse clock the pacing loop publishes once per pass.
	// Producers stamp spans from it and MultiQueue shares one instance
	// across all shards, so a whole multi-shard shaper pays one time.Now()
	// per pacing pass per shard rather than several per packet.
	clk *coarseClock

	rings atomic.Pointer[intake.Queue] // built lazily on first Submit/Start

	stop chan struct{}
	wake chan struct{} // 1-slot doorbell, rung only while idle is set
	idle atomic.Bool   // pacing goroutine is (about to be) asleep
	done sync.WaitGroup

	mu      sync.Mutex // Start/Stop state only; the hot path is atomic
	started bool
	stopped bool

	sent         atomic.Uint64
	sentBytes    atomic.Int64
	dropStopped  atomic.Uint64
	dropCanceled atomic.Uint64

	// Completion corrections queued for the pacing goroutine (Correct):
	// appended under corrMu from any goroutine, drained between scheduling
	// passes like inspections, with an atomic flag the loop polls.
	corrMu      sync.Mutex
	corrQ       []correction
	corrPending atomic.Bool
	// corrLoop (under corrMu) is set while the pacing goroutine is alive to
	// apply queued corrections: from Start until its exit flush.
	corrLoop bool

	// Span sampling (Config.Spans): every spanEvery-th submitted packet is
	// stamped with its submit clock; the transmit side turns the stamps
	// into a latency decomposition. spanCtr is shared by all producers.
	spanEvery uint64
	spanCtr   atomic.Uint64

	// Inspect support: closures for the pacing goroutine to run between
	// scheduling passes, with a cheap pending flag the loop polls.
	inspectQ       chan func()
	inspectPending atomic.Int32

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
	// paceMTU seeds the running average work per item used to convert
	// schedule deficit into a burst budget; underestimating the count is
	// safe (the loop comes straight back). The average adapts so that
	// cost-denominated work items — whose cost dwarfs an MTU — do not
	// turn microseconds of timer slack into a link-time-sized burst.
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
	// paceDrainHighWater is the default DrainHighWater: eight full bursts —
	// enough backlog to keep the link busy through any pacing gap, small
	// enough that the working set of queued packets stays cache-resident
	// and pool-recycled. Measured on the saturation sweep (TBL-O4), this
	// is where multi-shard throughput stops paying collector tax: at 4096
	// the 8-shard point costs ~1.6x the per-packet cost of one shard; at
	// 256 the 4- and 8-shard points come in ahead of it.
	paceDrainHighWater = 256
)

// NewPacedQueue wraps the scheduler. After Start, the Scheduler must not
// be used directly (the pacing goroutine owns it) until Stop returns.
func NewPacedQueue(s *Scheduler, transmit func(*Packet)) (*PacedQueue, error) {
	if s == nil || s.cfg.LinkRate == 0 {
		return nil, fmt.Errorf("hfsc: PacedQueue needs a scheduler with Config.LinkRate set")
	}
	if transmit == nil {
		return nil, fmt.Errorf("hfsc: PacedQueue needs a Transmit callback")
	}
	q := &PacedQueue{
		Transmit: transmit,
		s:        s,
		clk:      &coarseClock{},
		stop:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		inspectQ: make(chan func(), 8),
	}
	if s.cfg.Spans > 0 && s.agg != nil {
		q.spanEvery = uint64(s.cfg.Spans)
	}
	q.rate.Store(s.cfg.LinkRate)
	return q, nil
}

// SetRate changes the pacing rate (bytes/s) from any goroutine; zero is
// ignored. The initial rate is the scheduler's Config.LinkRate. MultiQueue
// uses this to re-divide a line rate between shards at run time; it only
// moves the output pacing — admission control and delay bounds still use
// the rate the Scheduler was configured with.
func (q *PacedQueue) SetRate(bps uint64) {
	if bps > 0 {
		q.rate.Store(bps)
	}
}

// Rate reports the current pacing rate in bytes/s.
func (q *PacedQueue) Rate() uint64 { return q.rate.Load() }

// intakeRings lazily builds the rings so IntakeShards/IntakeDepth set
// after NewPacedQueue still apply. Read-only paths (Stats, syncMetrics)
// load q.rings directly instead, so a queue that never carried traffic
// never allocates its rings.
func (q *PacedQueue) intakeRings() *intake.Queue {
	if r := q.rings.Load(); r != nil {
		return r
	}
	r := intake.New(q.IntakeShards, q.IntakeDepth)
	if q.rings.CompareAndSwap(nil, r) {
		return r
	}
	return q.rings.Load()
}

// Start launches the pacing goroutine.
func (q *PacedQueue) Start() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started {
		return
	}
	q.started = true
	q.corrMu.Lock()
	q.corrLoop = true
	q.corrMu.Unlock()
	q.done.Add(1)
	go q.loop()
}

// Stop terminates the pacing goroutine and waits for it; queued packets
// are discarded. Stop is idempotent. After Stop returns the Scheduler may
// be inspected again (e.g. Backlog) — the pacing goroutine is gone.
func (q *PacedQueue) Stop() {
	q.mu.Lock()
	if !q.started || q.stopped {
		q.mu.Unlock()
		return
	}
	q.stopped = true
	q.mu.Unlock()
	close(q.stop)
	q.done.Wait()
}

// Submit hands a packet to the shaper from any goroutine and reports
// exactly what happened: DropNone on acceptance, DropStopped after Stop,
// DropIntakeFull when the packet's intake shard was full (bounded-queue
// overflow: the packet is dropped, the producer never blocks). Acceptance
// means the packet reached the intake rings; scheduler-level refusals
// (unknown class, queue limit) happen asynchronously on the pacing
// goroutine and are visible through Snapshot, not Submit.
func (q *PacedQueue) Submit(p *Packet) DropReason {
	if q.isStopped() {
		q.dropStopped.Add(1)
		return DropStopped
	}
	q.maybeSpan(p)
	if !q.intakeRings().Push(p.Class, p) {
		return DropIntakeFull // the shard counted the drop
	}
	q.kick()
	return DropNone
}

// maybeSpan stamps every spanEvery-th packet with its submit clock; the
// transmit side turns the stamp into a lifecycle span. Costs one
// predictable branch per Submit when sampling is off. The stamp comes
// from the coarse clock (one atomic load, no time.Now() on the producer
// path); before the pacing loop's first pass publishes a value it falls
// back to the real clock. A coarse stamp is never ahead of the drain
// pass that picks the packet up, so span components stay non-negative.
func (q *PacedQueue) maybeSpan(p *Packet) {
	if q.spanEvery == 0 {
		return
	}
	if q.spanCtr.Add(1)%q.spanEvery == 0 {
		if ts := q.clk.now(); ts != 0 {
			p.SubmitAt = ts
		} else {
			p.SubmitAt = Now(time.Now())
		}
	}
}

// SubmitN is the batch form of Submit: it offers the packets in order and
// stops at the first refusal, paying one stopped-check and one doorbell
// ring per batch instead of per packet. It returns how many leading
// packets were accepted and why the batch stopped (DropNone when all of
// ps was accepted). Ownership of ps[:accepted] passes to the shaper;
// ps[accepted:] — including the refused packet itself — stays with the
// caller, which may retry or Release them. Packets after the first
// refusal are not attempted, so only the refusal itself is counted in
// the drop statistics.
func (q *PacedQueue) SubmitN(ps []*Packet) (accepted int, last DropReason) {
	if len(ps) == 0 {
		return 0, DropNone
	}
	if q.isStopped() {
		q.dropStopped.Add(1)
		return 0, DropStopped
	}
	rings := q.intakeRings()
	for i, p := range ps {
		q.maybeSpan(p)
		if !rings.Push(p.Class, p) { // the shard counted the drop
			if i > 0 {
				q.kick()
			}
			return i, DropIntakeFull
		}
	}
	q.kick()
	return len(ps), DropNone
}

// TrySubmit is Submit with the reason collapsed to a bool, mirroring the
// Enqueue/Offer split on the Scheduler: true means accepted.
func (q *PacedQueue) TrySubmit(p *Packet) bool { return q.Submit(p) == DropNone }

// submitCtxBackoff bounds the retry backoff of SubmitCtx: start at 50µs
// (about one pacing pass) and double to at most 5ms, so a briefly full
// ring is retried promptly while sustained overload doesn't spin.
const (
	submitCtxBackoffMin = 50 * time.Microsecond
	submitCtxBackoffMax = 5 * time.Millisecond
)

// SubmitCtx is Submit for producers that would rather wait than shed:
// when the packet's intake shard is full it blocks with exponential
// backoff (50µs doubling to 5ms) and retries until the packet is
// accepted, the queue stops, or ctx is done — returning DropNone,
// DropStopped or DropCanceled respectively. The packet stays owned by
// the caller unless DropNone is returned. Each full-ring retry round is
// counted as an intake-full refusal in the stats (the pressure was real
// even when a later retry succeeds).
func (q *PacedQueue) SubmitCtx(ctx context.Context, p *Packet) DropReason {
	if err := ctx.Err(); err != nil {
		q.countCanceled()
		return DropCanceled
	}
	backoff := submitCtxBackoffMin
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if r := q.Submit(p); r != DropIntakeFull {
			return r
		}
		if timer == nil {
			timer = time.NewTimer(backoff)
		} else {
			timer.Reset(backoff)
		}
		select {
		case <-ctx.Done():
			q.countCanceled()
			return DropCanceled
		case <-q.stop:
			q.dropStopped.Add(1)
			return DropStopped
		case <-timer.C:
		}
		if backoff *= 2; backoff > submitCtxBackoffMax {
			backoff = submitCtxBackoffMax
		}
	}
}

// countCanceled records one DropCanceled in the driver counter (synced
// into the metrics aggregator like the other intake drops).
func (q *PacedQueue) countCanceled() { q.dropCanceled.Add(1) }

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
// any goroutine: the adjustment is queued and applied by the pacing
// goroutine between scheduling passes, so it is asynchronous — Snapshot
// may lag a Correct by one pass; during Stop the pacing goroutine's exit
// flush applies it, so it is in place when Stop returns (this also makes
// Correct safe from Transmit while the queue stops). On a queue whose
// pacing goroutine is not running the adjustment is applied inline
// (callers must then serialize with other direct Scheduler use, as with
// Inspect). Unknown and removed classes are ignored.
func (q *PacedQueue) Correct(class int, estimated, actual int64, crit Criterion) {
	if estimated < 0 || actual < 0 || estimated == actual {
		return
	}
	q.corrMu.Lock()
	q.corrQ = append(q.corrQ, correction{class, estimated, actual, crit})
	q.corrPending.Store(true)
	queued := q.corrLoop
	q.corrMu.Unlock()
	if queued {
		q.kick()
		return
	}
	q.done.Wait() // the loop has flushed; let it finish winding down
	q.serveCorrections(Now(time.Now()))
}

// serveCorrections applies every queued correction at clock nowNs. Called
// from the pacing goroutine (loop body and exit path), and inline by
// Correct on a queue that is not running; corrMu is held across the
// scheduler calls so inline callers serialize with each other.
func (q *PacedQueue) serveCorrections(nowNs int64) {
	q.corrMu.Lock()
	defer q.corrMu.Unlock()
	q.corrPending.Store(false)
	for _, c := range q.corrQ {
		q.s.correctByID(c.class, c.estimated, c.actual, c.crit, nowNs)
	}
	q.corrQ = q.corrQ[:0]
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

// push offers one packet to the intake rings without the stopped-check or
// doorbell (MultiQueue batches those across shards).
func (q *PacedQueue) push(p *Packet) bool {
	q.maybeSpan(p)
	return q.intakeRings().Push(p.Class, p)
}

// kick rings the doorbell if the pacing goroutine is (about to be) asleep.
func (q *PacedQueue) kick() {
	if q.idle.Load() {
		select {
		case q.wake <- struct{}{}:
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
	// shard was full; DropsStopped counts Submits after Stop.
	DropsIntakeFull uint64
	DropsStopped    uint64
	// DropsCanceled counts SubmitCtx calls abandoned because the caller's
	// context was done while blocked for intake admission.
	DropsCanceled uint64
	// IntakeBacklog is the number of packets currently buffered in the
	// intake rings (approximate while producers are active).
	IntakeBacklog int
	// ShardHighWater holds each intake shard's deepest backlog observed
	// at a drain, indexed by shard.
	ShardHighWater []int64
}

// Drops returns the total packets refused at intake, all reasons.
func (st PacedStats) Drops() uint64 {
	return st.DropsIntakeFull + st.DropsStopped + st.DropsCanceled
}

// Stats snapshots the driver counters. Safe from any goroutine; the hot
// paths it reads are all atomics. On a queue that never carried traffic
// (no Submit, no Start) it returns zero-valued stats without building the
// intake rings.
func (q *PacedQueue) Stats() PacedStats {
	st := PacedStats{
		SentPackets:   q.sent.Load(),
		SentBytes:     q.sentBytes.Load(),
		DropsStopped:  q.dropStopped.Load(),
		DropsCanceled: q.dropCanceled.Load(),
	}
	if r := q.rings.Load(); r != nil {
		st.DropsIntakeFull = r.Drops()
		st.IntakeBacklog = r.Depth()
		st.ShardHighWater = r.HighWater()
	}
	return st
}

// syncMetrics publishes the driver-level intake drop totals into the
// scheduler's metrics aggregator so /metrics reports intake loss next to
// queue-limit loss. Cheap and idempotent (totals are monotonic).
func (q *PacedQueue) syncMetrics() {
	if q.s.agg == nil {
		return
	}
	var full uint64
	if r := q.rings.Load(); r != nil {
		full = r.Drops()
	}
	q.s.agg.RecordIntake(full, q.dropStopped.Load(), Now(time.Now()))
	q.s.agg.RecordCanceled(q.dropCanceled.Load(), Now(time.Now()))
	q.s.syncFlight()
}

// FlightRecorder returns the underlying scheduler's event ring, or nil
// when Config.Flight is off. Reading it is safe while the queue runs.
func (q *PacedQueue) FlightRecorder() *FlightRecorder { return q.s.rec }

// AuditSnapshot copies the online guarantee auditor's verdicts (nil when
// the scheduler was created without Config.Audit). Safe from any
// goroutine while the queue runs: it reads only the auditor's own state.
func (q *PacedQueue) AuditSnapshot() *AuditSnapshot { return q.s.AuditSnapshot() }

// Snapshot copies the scheduler's metrics (nil when the scheduler was
// created without Config.Metrics), after folding in the driver's intake
// drop counters. Unlike the Scheduler itself, which the pacing goroutine
// owns after Start, this is safe to call from any goroutine: it reads
// only the metrics aggregator and the driver's atomics.
func (q *PacedQueue) Snapshot() *Snapshot {
	q.syncMetrics()
	return q.s.Snapshot()
}

// WriteMetrics renders the scheduler's metrics in Prometheus text format
// (ErrMetricsDisabled without Config.Metrics), intake drops included.
// Safe from any goroutine, like Snapshot — wire it straight into an HTTP
// /metrics handler.
func (q *PacedQueue) WriteMetrics(w io.Writer) error {
	q.syncMetrics()
	return q.s.WriteMetrics(w)
}

func (q *PacedQueue) loop() {
	defer q.done.Done()
	// Serve inspections that arrived too late for the loop body: any
	// Inspect that enqueued before Stop flipped stopped (both under q.mu)
	// has its closure in the channel by the time the loop exits. Pending
	// corrections are flushed first so inspections see reconciled state.
	defer q.serveInspect()
	defer func() {
		q.corrMu.Lock()
		q.corrLoop = false // later Corrects apply inline
		q.corrMu.Unlock()
		if q.corrPending.Load() {
			q.serveCorrections(Now(time.Now()))
		}
	}()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	rings := q.intakeRings()
	// drainCap bounds one drain sweep to a full lap of the rings so a
	// sustained producer flood cannot starve the transmit side.
	drainCap := rings.Cap()
	linkFree := time.Now()
	// Running average work per transmitted item (cost units), seeded for
	// MTU-sized packets; the deficit-recovery burst size is derived from
	// it so the budget tracks what items actually cost on this queue.
	avgWork := int64(paceMTU)
	burst := make([]*Packet, 0, paceMaxBurst)
	buf := make([]*Packet, 0, paceDrainBatch)
	spin := 0 // idle yields left before the loop parks

	for {
		// The spin paths below bypass sleep — the only other place the
		// stop signal is observed — so a loaded loop must poll it here.
		if q.isStopped() {
			return
		}
		if q.inspectPending.Load() > 0 {
			q.serveInspect()
		}
		// The pass's single clock read: everything this pass stamps —
		// arrivals, spans, flight events, transmits — uses this value.
		now := time.Now()
		nowNs := Now(now)
		q.clk.advance(nowNs)
		if q.corrPending.Load() {
			q.serveCorrections(nowNs)
		}
		// Idle-class collection rides the pacing loop like corrections do:
		// no lock enters the hot path, and a scan can never interleave with
		// scheduling. The arm-check is one map-length read.
		if q.s.lcArmed() && nowNs >= q.gcAt {
			q.s.CollectIdle(nowNs)
			q.gcAt = nowNs + q.s.lcPeriod()
		}
		// The auditor's stalled-backlog probe rides the loop the same way,
		// so a class whose service stops entirely still fails checks.
		if q.s.aud != nil && nowNs >= q.auditAt {
			q.s.auditTick(nowNs)
			q.auditAt = nowNs + int64(paceAuditPeriod)
		}
		var drained int
		buf, drained = q.drainIntake(rings, buf, nowNs, drainCap)
		if drained > 0 {
			spin = paceIdleSpin
		}

		// Respect the transmission time of what already left.
		if now.Before(linkFree) {
			if linkFree.Sub(now) < paceSpinWait {
				runtime.Gosched()
				continue
			}
			if !q.sleep(timer, linkFree.Sub(now), rings, &buf, nowNs, false) {
				return
			}
			continue
		}

		// Steady state sends packet by packet; when the loop is behind
		// schedule (timer slack, a slow Transmit) it recovers the deficit
		// with one batched DequeueN call.
		rate := q.rate.Load()
		want := 1
		if behind := now.Sub(linkFree); behind > 0 {
			if owed := int(uint64(behind) * rate / (uint64(avgWork) * uint64(time.Second))); owed > 1 {
				want = min(owed, paceMaxBurst)
			}
		}
		burst = q.s.DequeueN(nowNs, want, burst[:0])
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
			if t, ok := q.s.NextReady(nowNs); ok {
				wait = time.Duration(t - nowNs)
				if wait <= 0 {
					wait = time.Microsecond
				}
			}
			// An armed collector bounds the park so idle classes are still
			// collected on an otherwise silent link.
			if q.s.lcArmed() {
				if d := time.Duration(q.gcAt - nowNs); d < wait {
					if d <= 0 {
						d = time.Millisecond
					}
					wait = d
				}
			}
			// A backlogged auditor bounds it too: a stalled class must keep
			// failing probes even when the link itself has nothing to send
			// (e.g. everything is deferred by an upper limit).
			if q.s.aud != nil && q.s.Backlog() > 0 {
				if d := time.Duration(q.auditAt - nowNs); d < wait {
					if d <= 0 {
						d = time.Millisecond
					}
					wait = d
				}
			}
			if !q.sleep(timer, wait, rings, &buf, nowNs, true) {
				return
			}
			continue
		}
		spin = paceIdleSpin

		// Read the cost (and span/flight identity) before Transmit:
		// ownership passes with the call, and a pooled packet may be
		// Released (and reused) inside the callback. The transmit stamp is
		// pass-granular: the pass's one clock read, not a fresh time.Now()
		// per burst.
		var total int64
		txNs := nowNs
		rec := q.s.rec
		for _, p := range burst {
			total += p.Work()
			if p.SubmitAt != 0 {
				q.observeSpan(p, nowNs, txNs)
			}
			if rec != nil {
				rec.RecordEv(core.EvTransmit, int32(p.Class), p.Seq, int32(p.Work()), txNs, txNs-nowNs)
			}
			q.Transmit(p)
		}
		q.sent.Add(uint64(len(burst)))
		q.sentBytes.Add(total)
		if per := total / int64(len(burst)); per > 0 {
			avgWork = (7*avgWork + per) / 8
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
// Transmit: intake wait (submit → intake drain, the Arrival stamp), queue
// delay (enqueue → dequeue, including pacing-induced waiting), pacing
// delay (dequeue → hand-off within the burst).
func (q *PacedQueue) observeSpan(p *Packet, nowNs, txNs int64) {
	submitAt := p.SubmitAt
	p.SubmitAt = 0
	if q.s.agg == nil {
		return
	}
	q.s.agg.ObserveSpan(p.Arrival-submitAt, nowNs-p.Arrival, txNs-nowNs, txNs)
}

// Inspect runs fn with exclusive access to the underlying Scheduler: on a
// running queue the pacing goroutine executes it between scheduling
// passes (Inspect blocks until done); on a queue that is not running it
// runs inline after any previous run has fully wound down. This is how
// live tree snapshots (DumpTree) read virtual times and backlogs without
// a data race. fn must not call back into the PacedQueue and must be
// quick — the link is stalled while it runs. Inspect must not be called
// concurrently with Start.
func (q *PacedQueue) Inspect(fn func(s *Scheduler)) {
	q.mu.Lock()
	if !q.started || q.stopped {
		q.mu.Unlock()
		q.done.Wait() // a stopped loop may still be winding down
		fn(q.s)
		return
	}
	done := make(chan struct{})
	q.inspectPending.Add(1)
	// Send under q.mu: this orders the send before any Stop (which also
	// takes q.mu), so the loop's exit drain is guaranteed to see it. A
	// full channel blocks here, but an earlier Inspect has then already
	// rung the doorbell, so the loop is on its way to drain.
	q.inspectQ <- func() {
		fn(q.s)
		close(done)
	}
	q.mu.Unlock()
	q.kick()
	<-done
}

// The name-addressed admin surface: the same lifecycle operations the
// Scheduler exposes, made safe on a running queue by routing through the
// pacing goroutine (Inspect). None of these may be called from Transmit,
// OnReject or a template's OnCollect — those already run on the pacing
// goroutine and would deadlock waiting for themselves.

// AddClass creates a class under the named parent ("" = the link root)
// while the queue runs, returning the new class's id for Packet.Class.
// Fails with ErrUnknownClass when the parent does not exist and
// ErrDuplicateClass when the name is taken.
func (q *PacedQueue) AddClass(parent, name string, cfg ClassConfig) (int, error) {
	id := -1
	var err error
	q.Inspect(func(s *Scheduler) {
		var p *Class
		if parent != "" {
			if p = s.Class(parent); p == nil {
				err = fmt.Errorf("%w: parent %q", ErrUnknownClass, parent)
				return
			}
		}
		var w *Class
		if w, err = s.AddClass(p, name, cfg); err == nil {
			id = w.ID()
		}
	})
	return id, err
}

// RemoveClass deletes the named class while the queue runs. Fails with
// ErrUnknownClass for an unknown name, ErrHasChildren for an interior
// class and ErrClassBusy while the class still holds packets or in-tree
// scheduling state. Packets for the retired id still in the intake rings
// are refused at drain time (see OnReject).
func (q *PacedQueue) RemoveClass(name string) error {
	var err error
	q.Inspect(func(s *Scheduler) {
		w := s.Class(name)
		if w == nil {
			err = fmt.Errorf("%w: %q", ErrUnknownClass, name)
			return
		}
		err = s.RemoveClass(w)
	})
	return err
}

// SetCurves replaces the named class's curves while the queue runs — live,
// even mid-backlog (see Scheduler.SetCurves for the semantics). Fails with
// ErrUnknownClass for an unknown name and ErrClassBusy when the change
// would alter curve presence on an active class.
func (q *PacedQueue) SetCurves(name string, cfg ClassConfig) error {
	var err error
	q.Inspect(func(s *Scheduler) {
		w := s.Class(name)
		if w == nil {
			err = fmt.Errorf("%w: %q", ErrUnknownClass, name)
			return
		}
		err = s.SetCurves(w, cfg, Now(time.Now()))
	})
	return err
}

// SetTemplate registers a class template (see Scheduler.SetTemplate) while
// the queue runs.
func (q *PacedQueue) SetTemplate(prefix string, tpl ClassTemplate) {
	q.Inspect(func(s *Scheduler) { s.SetTemplate(prefix, tpl) })
}

// EnsureClass resolves the named class, creating it from the matching
// template if needed, and returns its id. This is SubmitTo's slow path,
// exposed for callers that want the id (or the error) before submitting.
func (q *PacedQueue) EnsureClass(name string) (int, error) {
	id := -1
	var err error
	q.Inspect(func(s *Scheduler) {
		var w *Class
		if w, err = s.EnsureClass(name, Now(time.Now())); err == nil {
			id = w.ID()
		}
	})
	return id, err
}

// CollectIdle forces an idle-class collection scan now, returning how many
// classes were collected. The pacing goroutine runs scans on its own
// schedule; this exists for tests and admin endpoints that need a
// deterministic point-in-time sweep.
func (q *PacedQueue) CollectIdle() int {
	n := 0
	q.Inspect(func(s *Scheduler) { n = s.CollectIdle(Now(time.Now())) })
	return n
}

// ClassID resolves a class name to the id to place in Packet.Class. Safe
// from any goroutine and lock-free — this is the submit-by-name fast path,
// not an Inspect.
func (q *PacedQueue) ClassID(name string) (int, bool) { return q.s.ClassID(name) }

// SubmitTo submits by class name: the common case is one lock-free name
// lookup on top of Submit, and an unknown name is auto-created from the
// matching template (Config.AutoClass / SetTemplate) before submitting —
// the first packet of a new flow pays the creation, every later one takes
// the fast path. DropUnknownClass means no template matched the name (or
// the template refused it); the packet stays with the caller.
func (q *PacedQueue) SubmitTo(name string, p *Packet) DropReason {
	if id, ok := q.s.ClassID(name); ok {
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

// serveInspect runs every queued inspection closure. Called only from the
// pacing goroutine (loop body and exit path).
func (q *PacedQueue) serveInspect() {
	for {
		select {
		case fn := <-q.inspectQ:
			q.inspectPending.Add(-1)
			fn()
		default:
			return
		}
	}
}

// drainIntake moves buffered arrivals into the scheduler, stamping the
// arrival clock (unless the submitter already did) so queueing-delay
// metrics measure from intake. At most cap packets per call.
func (q *PacedQueue) drainIntake(rings *intake.Queue, buf []*Packet, nowNs int64, limit int) ([]*Packet, int) {
	if hw := q.drainHW(); hw > 0 {
		if room := hw - q.s.Backlog(); room < limit {
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
			if p.Arrival == 0 {
				p.Arrival = nowNs
			}
			if r := q.s.Offer(p, nowNs); r != DropNone && q.OnReject != nil {
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
func (q *PacedQueue) sleep(timer *time.Timer, d time.Duration, rings *intake.Queue, buf *[]*Packet, nowNs int64, bailOnArrival bool) bool {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(d)
	select {
	case <-q.wake: // clear a stale doorbell; the drain below catches its packet
	default:
	}
	q.idle.Store(true)
	defer q.idle.Store(false)
	// An Inspect or Correct whose kick ran before idle was set rang no
	// doorbell; it is visible here instead, so serve it rather than park.
	if q.inspectPending.Load() > 0 || q.corrPending.Load() {
		return true
	}
	var drained int
	*buf, drained = q.drainIntake(rings, *buf, nowNs, rings.Cap())
	if bailOnArrival && drained > 0 {
		return true
	}
	select {
	case <-q.stop:
		return false
	case <-timer.C:
		return true
	case <-q.wake:
		return true
	}
}
