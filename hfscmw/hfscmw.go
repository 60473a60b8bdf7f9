// Package hfscmw is a tenant-facing admission layer over the hfsc
// scheduler: an HTTP middleware and gRPC-shaped interceptors that shape
// *requests* instead of packets.
//
// Nothing in H-FSC's math requires the scheduled unit to be a network
// packet — the guarantees are stated over service received for work of a
// given size. This package maps each tenant to a leaf class —
// auto-created on first request through the scheduler's class-lifecycle
// template and, with Config.EvictAfter set, garbage-collected again once
// idle — expresses the tenant's SLO as a
// two-piece service curve over a shared concurrency budget, and submits
// one cost-denominated work item per request, where the cost is the
// estimated service time in nanoseconds. The pacing loop then admits
// requests exactly as it would pace packets onto a link whose rate is
// the concurrency budget: Config.Concurrency "seats" supply
// Concurrency seconds of service time per second.
//
// The request lifecycle is estimate → admit → serve → correct: a request
// blocks until its work item is released by the scheduler (the admission
// decision), runs, and finally reports its measured service time, which
// is reconciled against the estimate through the scheduler's completion
// correction (Scheduler.Correct) so tenants neither gain nor lose from
// estimation error. Guaranteed SLOs (real-time curves) are admitted
// against a capacity Ledger using the same SCED admissibility check the
// scheduler's own admission control uses; tenants whose guarantee does
// not fit degrade to link-sharing weight only.
package hfscmw

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsched/hfsc"
)

// Seat is the cost-unit rate of one concurrency seat: one second of
// estimated service time per second, in the nanosecond cost units
// requests are denominated in.
const Seat = uint64(time.Second)

// DefaultEstimate is the per-request service-time estimate used when the
// configuration provides none.
const DefaultEstimate = 25 * time.Millisecond

// DefaultMaxPending bounds how many requests one tenant may have queued
// for admission at once when Config.MaxPending is zero.
const DefaultMaxPending = 1024

// Sentinel errors returned by Admit (and mapped to transport responses
// by the middleware).
var (
	// ErrOverloaded: the request was shed — the tenant's pending-admission
	// bound or the intake rings are full. HTTP responds 429 with a
	// Retry-After header; gRPC adapters should map it to
	// ResourceExhausted.
	ErrOverloaded = errors.New("hfscmw: overloaded, retry later")
	// ErrClosed: the limiter was closed.
	ErrClosed = errors.New("hfscmw: limiter closed")
)

// SLO expresses one tenant's service-level objective as the three
// parameters of a two-piece service curve over the concurrency budget:
// a burst of Burst concurrent seats for Latency, then Sustained seats.
// Following the paper's decoupling argument, Burst/Latency bound how
// much queueing a conforming burst sees while Sustained is the long-run
// share — the two are independent knobs.
//
// The zero SLO means "no guarantee": the tenant gets a link-sharing
// fair share of one seat and no real-time curve.
type SLO struct {
	// Burst is the concurrency (seats) the tenant may claim at once.
	Burst float64
	// Latency is how long a conforming burst may have to wait — the d of
	// the service curve, and the knee where Burst gives way to Sustained.
	Latency time.Duration
	// Sustained is the long-run concurrency share (seats).
	Sustained float64
}

// IsZero reports whether the SLO is the zero "no guarantee" value.
func (s SLO) IsZero() bool { return s == SLO{} }

// Curve renders the SLO as a service curve in cost units per second:
// m1 = Burst seats, d = Latency, m2 = Sustained seats.
func (s SLO) Curve() hfsc.SC {
	return hfsc.Curve(seats(s.Burst), s.Latency, seats(s.Sustained))
}

// seats converts a seat count to a cost-unit rate.
func seats(n float64) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n * float64(Seat))
}

// Config configures a Limiter.
type Config struct {
	// Concurrency is the shared budget in seats — the capacity every
	// tenant curve is admitted against and the aggregate rate requests
	// are admitted at. Required.
	Concurrency int

	// DefaultSLO is the SLO for tenants auto-created on first request.
	// The zero value grants no guarantee: a link-sharing fair share of
	// one seat. Use AddTenant for per-tenant SLOs.
	DefaultSLO SLO

	// Estimate predicts the service time of one request; op is the
	// transport operation (HTTP "METHOD /path", gRPC full method). A nil
	// func or non-positive result falls back to DefaultEstimate, then to
	// the package default of 25ms. Estimation error is reconciled at
	// completion via the scheduler's correction mechanism, so estimates
	// need to be in the right ballpark, not exact.
	Estimate func(tenant, op string) time.Duration

	// DefaultEstimate overrides the package-default service-time
	// estimate.
	DefaultEstimate time.Duration

	// EvictAfter garbage-collects a tenant's leaf class once it has been
	// idle — no queued, served or dropped requests — for this long: the
	// class is removed by the scheduler's idle collection, its ledger hold
	// is released, and the tenant is re-created from scratch (DefaultSLO,
	// or another AddTenant call) on its next request. Zero disables
	// eviction: tenants live until Close.
	EvictAfter time.Duration

	// MaxPending bounds each tenant's requests queued for admission;
	// beyond it requests are shed immediately (ErrOverloaded). Zero
	// means DefaultMaxPending; negative disables the bound.
	MaxPending int

	// RetryAfter is the hint sent with shed responses (HTTP Retry-After).
	// Zero means one second.
	RetryAfter time.Duration

	// Tenant resolves the tenant of an HTTP request for Middleware. Nil
	// uses the X-Tenant header, falling back to "default". The gRPC
	// interceptors take their own resolver since metadata access differs
	// per transport.
	Tenant func(r *http.Request) string

	// Metrics enables the scheduler's metrics pipeline (Snapshot,
	// WriteMetrics) on the underlying scheduler.
	Metrics bool

	// Audit enables the scheduler's online guarantee auditor: each
	// tenant's admission service is continuously checked against its
	// SLO's curve, violations are attributed (non-conforming arrivals,
	// drops, cost mis-estimation, genuine scheduler lateness), and burn
	// rates are tracked per tenant. Read the verdicts with Verdicts or
	// AuditSnapshot; with Metrics they also appear as the
	// hfsc_guarantee_* Prometheus families.
	Audit bool
}

// tenant is the limiter-side state of one leaf class.
type tenant struct {
	name       string
	class      int
	slo        SLO
	guaranteed bool // the SLO's real-time curve was admitted by the ledger

	pending  atomic.Int64 // requests queued for admission
	admitted atomic.Uint64
	shed     atomic.Uint64
	canceled atomic.Uint64
}

// Limiter schedules request admission across tenants over a shared
// concurrency budget. Create one with New, wrap handlers with
// Middleware / UnaryInterceptor / StreamInterceptor, or drive it
// directly with Admit.
type Limiter struct {
	cfg    Config
	sched  *hfsc.Scheduler
	q      *hfsc.PacedQueue
	ledger *Ledger

	// createMu serializes tenant creation (EnsureClass round-trips through
	// the pacing goroutine); the eviction callback never takes it, so a
	// creator blocked on the pacing goroutine cannot deadlock with an
	// eviction running there. tenants and byClass are sync.Maps: Admit's
	// lookup fast path, Stats, and the pacing-goroutine callbacks all read
	// them lock-free.
	createMu sync.Mutex
	tenants  sync.Map // tenant name -> *tenant
	byClass  sync.Map // class id -> *tenant; read by the transmit callback

	// pendSLO and pendGuaranteed hand the SLO of the tenant being created
	// from getOrCreate (holding createMu) to makeTenant on the pacing
	// goroutine, and the ledger verdict back; the EnsureClass round-trip
	// provides the happens-before edge in both directions.
	pendSLO        SLO
	pendGuaranteed bool

	// wakeChans recycles the cap-1 channels admission waits on. It is a
	// buffered channel rather than a sync.Pool because a GC empties a
	// sync.Pool, and admission would then allocate again after every
	// collection.
	wakeChans chan chan struct{}

	closed     chan struct{}
	closeOnce  sync.Once
	maxPending int64
}

// wakeChanCache bounds how many idle wake channels a Limiter keeps; a
// release past it leaves the channel to the GC. It matches
// DefaultMaxPending, so a burst as large as one tenant's whole pending
// bound is admitted without allocating channels, and the free list pins
// at most about 100 KB.
const wakeChanCache = DefaultMaxPending

// New builds and starts a Limiter over cfg.Concurrency seats.
func New(cfg Config) (*Limiter, error) {
	if cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("hfscmw: Config.Concurrency must be positive, got %d", cfg.Concurrency)
	}
	capacity := uint64(cfg.Concurrency) * Seat
	l := &Limiter{
		cfg:       cfg,
		ledger:    NewLedger(capacity),
		wakeChans: make(chan chan struct{}, wakeChanCache),
		closed:    make(chan struct{}),
	}
	switch {
	case cfg.MaxPending > 0:
		l.maxPending = int64(cfg.MaxPending)
	case cfg.MaxPending < 0:
		l.maxPending = 0 // unbounded
	default:
		l.maxPending = DefaultMaxPending
	}
	l.sched = hfsc.New(hfsc.Config{
		LinkRate: capacity,
		Metrics:  cfg.Metrics,
		Audit:    cfg.Audit,
	})
	// Tenant classes are created — and, with EvictAfter > 0, collected
	// again — through the scheduler's class-lifecycle template: creation
	// renders the SLO staged by getOrCreate, eviction releases the ledger
	// hold and drops the tenant from the registries.
	l.sched.SetTemplate("", hfsc.ClassTemplate{
		Make:      l.makeTenant,
		Grace:     cfg.EvictAfter,
		OnCollect: l.onEvict,
	})
	q, err := hfsc.NewPacedQueue(l.sched, l.transmit)
	if err != nil {
		return nil, err
	}
	// Requests are bounded per tenant by MaxPending, not by the drain
	// watermark (sized for packet floods, it would strand admissions in
	// the intake rings where per-class order is the only order).
	q.DrainHighWater = -1
	// A tenant evicted between Admit's class lookup and the intake drain
	// refuses its in-flight work items; resolve their gates so the waiters
	// can retry against a freshly created class instead of hanging.
	q.OnReject = l.onReject
	l.q = q
	q.Start()
	return l, nil
}

// Close stops admission: waiting requests fail with ErrClosed and the
// pacing goroutine is stopped. Close is idempotent.
func (l *Limiter) Close() {
	l.closeOnce.Do(func() {
		// Closed under createMu, so no tenant creation outlives it: on the
		// stopped queue EnsureClass would run on the caller's goroutine and
		// race the completion corrections Finish then applies inline.
		l.createMu.Lock()
		close(l.closed)
		l.createMu.Unlock()
		l.q.Stop()
	})
}

// Ledger returns the capacity ledger guarantees are admitted against —
// shared with control planes (cmd/hfsc-admit) so the admission check and
// the datapath use one code path.
func (l *Limiter) Ledger() *Ledger { return l.ledger }

// Snapshot returns the underlying scheduler's metrics snapshot (nil
// without Config.Metrics). Tenant classes appear under their tenant
// names.
func (l *Limiter) Snapshot() *hfsc.Snapshot { return l.q.Snapshot() }

// WriteMetrics renders the underlying scheduler's metrics in Prometheus
// text format.
func (l *Limiter) WriteMetrics(w io.Writer) error { return l.q.WriteMetrics(w) }

// Inspect runs fn with exclusive access to the underlying scheduler (on
// the pacing goroutine); see PacedQueue.Inspect.
func (l *Limiter) Inspect(fn func(*hfsc.Scheduler)) { l.q.Inspect(fn) }

// AuditSnapshot returns the online guarantee auditor's verdicts over
// every tenant class (nil without Config.Audit). Safe from any goroutine.
func (l *Limiter) AuditSnapshot() *hfsc.AuditSnapshot { return l.q.AuditSnapshot() }

// Verdicts returns every live tenant's guarantee verdict, keyed by tenant
// name: the audited health of each SLO (ok / at risk / violated) with the
// attributed violation counters behind it. Tenants that have not been
// served yet are absent. Returns nil without Config.Audit.
func (l *Limiter) Verdicts() map[string]hfsc.ClassAudit {
	snap := l.q.AuditSnapshot()
	if snap == nil {
		return nil
	}
	out := map[string]hfsc.ClassAudit{}
	l.tenants.Range(func(name, v any) bool {
		t := v.(*tenant)
		if ca, ok := snap.Class(t.class); ok {
			out[name.(string)] = ca
		}
		return true
	})
	return out
}

// DelayBound returns the worst-case admission latency of a conforming
// burst of u estimated service time against slo's curve (Theorems 1/2:
// the curve's inverse at u plus one maximum work item at the budget
// rate). This is the bound the SLO acceptance tests assert p99 against.
func (l *Limiter) DelayBound(slo SLO, u, lmax time.Duration) (time.Duration, error) {
	return l.sched.DelayBound(slo.Curve(), int(u.Nanoseconds()), int(lmax.Nanoseconds()))
}

// TenantStats are one tenant's admission counters.
type TenantStats struct {
	// Class is the tenant's leaf class id in the underlying scheduler.
	Class int
	// SLO is the tenant's configured objective.
	SLO SLO
	// Guaranteed reports whether the SLO's real-time curve was admitted
	// against the capacity ledger (false = link-sharing weight only).
	Guaranteed bool
	// Admitted / Shed / Canceled count requests by outcome; Pending is
	// the current queued-for-admission gauge.
	Admitted uint64
	Shed     uint64
	Canceled uint64
	Pending  int64
}

// Stats snapshots every live tenant's counters, keyed by tenant name.
// Evicted tenants disappear from the snapshot; their counters restart at
// zero if the tenant is re-created.
func (l *Limiter) Stats() map[string]TenantStats {
	out := map[string]TenantStats{}
	l.tenants.Range(func(name, v any) bool {
		t := v.(*tenant)
		out[name.(string)] = TenantStats{
			Class:      t.class,
			SLO:        t.slo,
			Guaranteed: t.guaranteed,
			Admitted:   t.admitted.Load(),
			Shed:       t.shed.Load(),
			Canceled:   t.canceled.Load(),
			Pending:    t.pending.Load(),
		}
		return true
	})
	return out
}

// AddTenant creates (or returns) the tenant's leaf class with the given
// SLO; after Close it creates none and fails with ErrClosed. A non-zero SLO is reserved and committed against the capacity
// ledger; if the guarantee does not fit alongside existing commitments
// the tenant is still created with the SLO's curve as link-sharing
// weight only, and guaranteed reports false. Safe from any goroutine,
// including while requests flow. A tenant evicted under Config.EvictAfter
// forgets its SLO: re-create it with another AddTenant call, or let the
// next request re-create it with DefaultSLO.
func (l *Limiter) AddTenant(name string, slo SLO) (guaranteed bool, err error) {
	t, err := l.getOrCreate(name, slo)
	if err != nil {
		return false, err
	}
	return t.guaranteed, nil
}

// getOrCreate resolves a tenant, creating its leaf class on first use
// through the scheduler's lifecycle template, so explicit AddTenant
// calls, auto-creation on first request, and idle eviction all share one
// registry and one code path.
func (l *Limiter) getOrCreate(name string, slo SLO) (*tenant, error) {
	if v, ok := l.tenants.Load(name); ok {
		return v.(*tenant), nil
	}
	l.createMu.Lock()
	defer l.createMu.Unlock()
	if v, ok := l.tenants.Load(name); ok {
		return v.(*tenant), nil
	}
	select {
	case <-l.closed:
		return nil, ErrClosed
	default:
	}
	// Stage the SLO for makeTenant (which only receives the class name),
	// then create through the pacing goroutine. The eviction and transmit
	// callbacks never take createMu, so blocking on the pacing goroutine
	// while holding it is safe.
	l.pendSLO, l.pendGuaranteed = slo, false
	id, err := l.q.EnsureClass(name)
	if err != nil {
		if l.pendGuaranteed {
			l.ledger.Release(name)
		}
		return nil, err
	}
	t := &tenant{name: name, class: id, slo: slo, guaranteed: l.pendGuaranteed}
	// Pin the auditor's arrival-conformance allowance to the SLO's own
	// burst (the cost its curve absorbs before the knee), so conformance
	// is judged against what the tenant was promised rather than against
	// the largest request it happened to submit.
	if !slo.IsZero() {
		if burst := int64(seats(slo.Burst)) * slo.Latency.Nanoseconds() / int64(time.Second); burst > 0 {
			l.sched.SetAuditBurst(id, burst)
		}
	}
	l.tenants.Store(name, t)
	l.byClass.Store(id, t)
	return t, nil
}

// makeTenant is the lifecycle template's Make hook: it renders the SLO
// staged by getOrCreate into a class configuration, admitting any
// guarantee against the capacity ledger. Runs on the pacing goroutine
// inside the EnsureClass round-trip.
func (l *Limiter) makeTenant(name string) (hfsc.ClassConfig, bool) {
	slo := l.pendSLO
	var rt, ls hfsc.SC
	if slo.IsZero() {
		ls = hfsc.Linear(Seat) // fair share of one seat, no guarantee
	} else {
		ls = slo.Curve()
		if slo.Sustained > 0 && l.ledger.Acquire(name, ls) == nil {
			rt = ls
			l.pendGuaranteed = true
		}
	}
	return hfsc.ClassConfig{RealTime: rt, LinkShare: ls}, true
}

// onEvict is the lifecycle template's OnCollect hook: the scheduler has
// removed an idle tenant's class. Runs on the pacing goroutine and
// touches only the lock-free registries and the ledger — never createMu,
// which a goroutine blocked in EnsureClass may hold while waiting on this
// very goroutine.
func (l *Limiter) onEvict(name string, id int) {
	l.byClass.Delete(id)
	if v, ok := l.tenants.LoadAndDelete(name); ok {
		if v.(*tenant).guaranteed {
			l.ledger.Release(name)
		}
	}
}

// onReject is the PacedQueue's OnReject callback: a submitted work item
// was refused at drain time because its class was evicted between Admit's
// lookup and the intake drain. Resolve the gate so the waiter can retry
// against a freshly created class. Runs on the pacing goroutine.
func (l *Limiter) onReject(p *hfsc.Packet, _ hfsc.DropReason) {
	g, _ := p.Handle.(*gate)
	p.Release()
	if g != nil && g.state.CompareAndSwap(gateWaiting, gateRejected) {
		g.ch <- struct{}{}
	}
}

// estimate resolves the service-time estimate for one request.
func (l *Limiter) estimate(tenant, op string) time.Duration {
	if l.cfg.Estimate != nil {
		if d := l.cfg.Estimate(tenant, op); d > 0 {
			return d
		}
	}
	if l.cfg.DefaultEstimate > 0 {
		return l.cfg.DefaultEstimate
	}
	return DefaultEstimate
}

// Gate states: a request waits on its gate until the scheduler releases
// its work item (admission) or the wait is abandoned.
const (
	gateWaiting int32 = iota
	gateAdmitted
	gateAbandoned
	gateRejected // work item refused at drain: the class was evicted mid-flight
)

// gate is the per-request admission handle carried through the scheduler
// in Packet.Handle. Whoever moves state out of gateWaiting owns the
// outcome: transmit and onReject send once on ch, while a waiter that wins
// the abandon CAS knows no send will come. ch is a recycled cap-1 channel
// (Limiter.wakeChans) that goes back to the free list only once nothing
// can send on it for this gate, so it never wakes a later waiter. The
// gate itself is never recycled: the work item of an abandoned request
// may still reach transmit, which CASes the state of this very gate.
type gate struct {
	ch    chan struct{}
	state atomic.Int32
	crit  hfsc.Criterion // set before the send on ch when admitted
}

// wakeChan takes a wake channel from the free list, or makes one.
func (l *Limiter) wakeChan() chan struct{} {
	select {
	case ch := <-l.wakeChans:
		return ch
	default:
		return make(chan struct{}, 1)
	}
}

// releaseWake returns a drained wake channel to the free list.
func (l *Limiter) releaseWake(ch chan struct{}) {
	select {
	case l.wakeChans <- ch:
	default:
	}
}

// transmit is the PacedQueue's Transmit callback: the scheduler decided
// to serve this work item, i.e. the request is admitted. Runs on the
// pacing goroutine.
func (l *Limiter) transmit(p *hfsc.Packet) {
	g, _ := p.Handle.(*gate)
	class, cost, crit := p.Class, int64(p.Cost), p.Crit
	p.Release()
	if t, ok := l.byClass.Load(class); ok {
		t.(*tenant).pending.Add(-1)
	}
	if g == nil {
		return
	}
	g.crit = crit
	if g.state.CompareAndSwap(gateWaiting, gateAdmitted) {
		g.ch <- struct{}{}
		return
	}
	// The waiter abandoned (context done) before admission: the item's
	// estimated cost was charged for work that will never run — refund
	// it so the tenant's virtual time reflects reality.
	l.q.Correct(class, cost, 0, crit)
}

// Ticket is an admitted request: the holder may run the work, then must
// call Done (or Finish) exactly once to reconcile the measured service
// time with the estimate the request was admitted under. The request's
// admission gate is embedded, so a warm Admit allocates only the Ticket.
type Ticket struct {
	gate
	l         *Limiter
	t         *tenant
	est       int64
	admitted  time.Time
	completed atomic.Bool
}

// Tenant returns the tenant the ticket was issued to.
func (tk *Ticket) Tenant() string { return tk.t.name }

// AdmittedAt returns when the scheduler admitted the request.
func (tk *Ticket) AdmittedAt() time.Time { return tk.admitted }

// Done reports the service completed now, measuring the actual service
// time since admission. Idempotent.
func (tk *Ticket) Done() { tk.Finish(time.Since(tk.admitted)) }

// Finish reports the measured service time explicitly and reconciles it
// with the estimate through the scheduler's completion correction.
// Idempotent; only the first call counts.
func (tk *Ticket) Finish(actual time.Duration) {
	if !tk.completed.CompareAndSwap(false, true) {
		return
	}
	act := actual.Nanoseconds()
	if act < 0 {
		act = 0
	}
	tk.l.q.Correct(tk.t.class, tk.est, act, tk.crit)
}

// Admit blocks until the scheduler admits one request for tenant (the
// service-curve decision over all competing tenants), the request is
// shed (ErrOverloaded), the limiter closes (ErrClosed), or ctx is done
// (its error). op names the operation for the estimator. On success the
// caller runs the work and must complete the returned Ticket.
func (l *Limiter) Admit(ctx context.Context, tenantName, op string) (*Ticket, error) {
	select {
	case <-l.closed:
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est := l.estimate(tenantName, op).Nanoseconds()
	if est <= 0 {
		est = 1
	}
	// A tenant evicted between the class lookup and the intake drain
	// refuses its work item (gateRejected); one retry drops the stale
	// tenant, re-creates the class, and resubmits.
	for attempt := 0; ; attempt++ {
		t, err := l.getOrCreate(tenantName, l.cfg.DefaultSLO)
		if err != nil {
			return nil, err
		}
		tk, rejected, err := l.admitOnce(ctx, t, est)
		if !rejected {
			return tk, err
		}
		l.tenants.CompareAndDelete(tenantName, t)
		l.byClass.CompareAndDelete(t.class, t)
		if attempt > 0 {
			t.shed.Add(1)
			return nil, fmt.Errorf("%w (tenant %q evicted)", ErrOverloaded, tenantName)
		}
	}
}

// admitOnce submits one work item for t and waits for the verdict.
// rejected reports that the scheduler refused the item at drain time —
// t's class was evicted mid-flight — and the caller may retry with a
// re-created tenant.
func (l *Limiter) admitOnce(ctx context.Context, t *tenant, est int64) (tk *Ticket, rejected bool, err error) {
	if l.maxPending > 0 && t.pending.Add(1) > l.maxPending {
		t.pending.Add(-1)
		t.shed.Add(1)
		return nil, false, fmt.Errorf("%w (tenant %q pending bound)", ErrOverloaded, t.name)
	} else if l.maxPending <= 0 {
		t.pending.Add(1)
	}

	tk = &Ticket{gate: gate{ch: l.wakeChan()}, l: l, t: t, est: est}
	g := &tk.gate
	p := hfsc.GetPacket()
	p.Cost = uint64(est)
	p.Class = t.class
	p.Handle = g

	if r := l.q.Submit(p); r != hfsc.DropNone {
		t.pending.Add(-1)
		p.Release()
		l.releaseWake(g.ch) // the gate never reached the scheduler
		switch r {
		case hfsc.DropStopped:
			return nil, false, ErrClosed
		default: // DropIntakeFull
			t.shed.Add(1)
			return nil, false, fmt.Errorf("%w (intake full)", ErrOverloaded)
		}
	}

	select {
	case <-g.ch:
		l.releaseWake(g.ch)
		if g.state.Load() == gateRejected {
			t.pending.Add(-1)
			return nil, true, nil
		}
		t.admitted.Add(1)
		tk.admitted = time.Now()
		return tk, false, nil
	case <-ctx.Done():
	case <-l.closed:
	}
	// Abandon the wait; if the scheduler resolved the gate concurrently,
	// honor the resolution: take an admission and refund it in full (the
	// handler will not run), or absorb a rejection (nothing was charged).
	if g.state.CompareAndSwap(gateWaiting, gateAbandoned) {
		l.releaseWake(g.ch) // nothing sends once the gate is abandoned
		t.canceled.Add(1)
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		return nil, false, ErrClosed
	}
	<-g.ch
	l.releaseWake(g.ch)
	t.canceled.Add(1)
	if g.state.Load() == gateRejected {
		t.pending.Add(-1)
	} else {
		l.q.Correct(t.class, est, 0, g.crit)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return nil, false, ErrClosed
}
