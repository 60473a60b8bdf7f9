package audit

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/fixpt"
	"github.com/netsched/hfsc/internal/pktq"
)

// fifoOracle audits with one fluid deadline per queued packet: each
// enqueue pushes anchor + RSC⁻¹(arrived), each dequeue pops and checks the
// head, and Tick peeks it. It shares the Auditor's per-class bookkeeping
// (envelope, attribution, burn and margin windows), so the differential
// tests below compare only where the deadlines come from: a per-packet
// FIFO here, the cumulative dequeued work in the Auditor.
type fifoOracle struct {
	a  *Auditor
	qs map[int]*oracleQueue
}

type oracleQueue struct {
	dl   []int64 // fluid deadline of each queued packet of an RT class
	pkts int     // queued packets
}

func newFIFOOracle(linkRate uint64) *fifoOracle {
	return &fifoOracle{a: New(linkRate), qs: map[int]*oracleQueue{}}
}

func (o *fifoOracle) Apply(recs []core.Record) {
	for i := range recs {
		o.apply(&recs[i])
	}
}

func (o *fifoOracle) apply(r *core.Record) {
	a, now := o.a, r.Now
	if r.Ev != core.EvEnqueue && r.Ev != core.EvDequeueRT && r.Ev != core.EvDequeueLS {
		a.Apply([]core.Record{*r})
		return
	}
	if now > a.lastEvent {
		a.lastEvent = now
	}
	st := a.state(r.Class)
	q := o.qs[st.id]
	if q == nil {
		q = &oracleQueue{}
		o.qs[st.id] = q
	}
	if r.Ev == core.EvEnqueue {
		st.refreshCurve(r.Class)
		if !st.busy {
			st.busy, st.anchor, st.arrived = true, now, 0
			st.nonConforming, st.stallCounted = false, false
			st.corrAtAnchor, st.defAtAnchor = st.corrs, a.ulimitDefers
			q.dl, q.pkts = q.dl[:0], 0
		}
		q.pkts++
		st.arrived += r.Work
		a.observeWork(st, r.Work)
		if st.hasRT {
			if !st.nonConforming && st.overEnvelope(now-st.anchor) {
				st.nonConforming = true
				st.badStart++
			}
			q.dl = append(q.dl, fixpt.SatAdd(st.anchor, st.deadlineRel(st.arrived)))
		}
		return
	}
	if q.pkts > 0 {
		q.pkts--
	}
	counted := st.stallCounted
	st.stallCounted = false
	if st.hasRT && len(q.dl) > 0 {
		dl := q.dl[0]
		q.dl = q.dl[1:]
		sec := now / int64(time.Second)
		margin := dl + a.allow() - now
		st.sampleMargin(sec, margin)
		delay := max(now-r.Arrival, 0)
		st.delayMaxNs = max(st.delayMaxNs, delay)
		if !counted {
			late := -margin
			viol := late > 0
			if !viol && st.nonConforming && delay > 0 {
				if bound := st.delayBound(a); bound < curve.Inf-tolerance && delay > bound+tolerance {
					viol = true
				}
			}
			st.checks++
			if viol {
				cause := st.attribute(a)
				st.viols[cause]++
				if cause == CauseSchedulerLate || cause == CauseUlimitDefer {
					st.worstLateNs = max(st.worstLateNs, late)
				}
			}
			st.record(sec, viol)
		}
	}
	if q.pkts == 0 {
		st.busy = false
		q.dl = q.dl[:0]
	}
}

// tick is Auditor.Tick probing the head of each deadline FIFO.
func (o *fifoOracle) tick(now int64) {
	a := o.a
	a.lastEvent = max(a.lastEvent, now)
	sec := now / int64(time.Second)
	for _, st := range a.classes {
		if st == nil || !st.busy || !st.hasRT || len(o.qs[st.id].dl) == 0 {
			continue
		}
		margin := o.qs[st.id].dl[0] + a.allow() - now
		st.sampleMargin(sec, margin)
		if margin < 0 && !st.stallCounted {
			st.stallCounted = true
			st.checks++
			cause := st.attribute(a)
			st.viols[cause]++
			if cause == CauseSchedulerLate || cause == CauseUlimitDefer {
				st.worstLateNs = max(st.worstLateNs, -margin)
			}
			st.record(sec, true)
		}
	}
}

// diffStream drives one seeded random stream of enqueues (bursts that
// overflow the queue limit), DequeueN passes over a link that sometimes
// runs slow, completion corrections and idle gaps through a core
// scheduler whose batch publishes to both an Auditor and a fifoOracle.
type diffStream struct {
	rng       *rand.Rand
	s         *core.Scheduler
	b         *core.Batch
	got       *Auditor
	want      *fifoOracle
	cls       []*core.Class
	sizes     []int // per class: the fixed size, or 0 for sizes drawn from 64..1500
	ticks     bool
	now       int64
	out       []*pktq.Packet
	done      []*pktq.Packet // recently dequeued, candidates for Correct
	slowUntil int64
}

const diffLink = 1_000_000 // bytes/s

func newDiffStream(t *testing.T, seed int64, fixed, ticks bool) *diffStream {
	t.Helper()
	d := &diffStream{rng: rand.New(rand.NewSource(seed)), ticks: ticks}
	d.got, d.want = New(diffLink), newFIFOOracle(diffLink)
	d.b = core.NewBatch(d.got, d.want)
	d.s = core.New(core.Options{Tracer: d.b, DefaultQueueLimit: 16})
	specs := []struct {
		name          string
		rsc, fsc, usc curve.SC
	}{
		{"linear", curve.Linear(300_000), curve.Linear(300_000), curve.Linear(400_000)},
		{"concave", curve.SC{M1: 600_000, D: 4 * msec, M2: 150_000}, curve.Linear(200_000), curve.Linear(300_000)},
		{"convex", curve.SC{M1: 50_000, D: 10 * msec, M2: 250_000}, curve.Linear(250_000), curve.Linear(300_000)},
		{"ls-only", curve.SC{}, curve.Linear(250_000), curve.Linear(300_000)},
	}
	for i, sp := range specs {
		cl, err := d.s.AddClass(nil, sp.name, sp.rsc, sp.fsc, sp.usc)
		if err != nil {
			t.Fatalf("AddClass %s: %v", sp.name, err)
		}
		d.cls = append(d.cls, cl)
		if i == 0 {
			// Pinned: four packets may arrive back to back and conform.
			d.got.SetBurst(cl.ID(), 6000)
			d.want.a.SetBurst(cl.ID(), 6000)
		}
		if fixed {
			d.sizes = append(d.sizes, 200+400*i)
		} else {
			d.sizes = append(d.sizes, 0)
		}
	}
	return d
}

func (d *diffStream) size(k int) int {
	if d.sizes[k] > 0 {
		return d.sizes[k]
	}
	return 64 + d.rng.Intn(1500-64+1)
}

// step applies one random operation and publishes its events.
func (d *diffStream) step() {
	switch r := d.rng.Intn(100); {
	case r < 40: // a burst into one class
		k := d.rng.Intn(len(d.cls))
		for n := 1 + d.rng.Intn(4); n > 0; n-- {
			d.s.Enqueue(&pktq.Packet{Len: d.size(k), Class: d.cls[k].ID()}, d.now)
			if d.rng.Intn(2) == 0 {
				d.now += d.rng.Int63n(3 * msec)
			}
		}
	case r < 75: // one DequeueN pass, then the link's transmission time
		d.dequeue(1 + d.rng.Intn(6))
	case r < 85: // a completion correction of a recent departure
		if len(d.done) > 0 {
			p := d.done[d.rng.Intn(len(d.done))]
			actual := int64(p.Len/2 + d.rng.Intn(3*p.Len))
			d.s.Correct(d.s.ClassByID(p.Class), int64(p.Len), actual, p.Crit, d.now)
		}
	case r < 95: // idle gap
		d.now += d.rng.Int63n(20 * msec)
	default: // a stall: no service for a while
		d.now += 20*msec + d.rng.Int63n(60*msec)
	}
	if d.ticks && d.rng.Intn(3) == 0 {
		d.b.Publish()
		d.got.Tick(d.now)
		d.want.tick(d.now)
	}
	d.b.Publish()
}

func (d *diffStream) dequeue(n int) {
	if d.now >= d.slowUntil && d.rng.Intn(8) == 0 {
		// A slow stretch: the link serves at a quarter of its rate.
		d.slowUntil = d.now + 50*msec + d.rng.Int63n(200*msec)
	}
	d.out = d.s.DequeueN(d.now, n, d.out[:0])
	if len(d.out) == 0 {
		d.now += msec // nothing eligible or fitting yet
		return
	}
	var work int64
	for _, p := range d.out {
		work += p.Work()
		if len(d.done) < 16 {
			d.done = append(d.done, p)
		} else {
			d.done[d.rng.Intn(len(d.done))] = p
		}
	}
	tx := work * int64(time.Second) / diffLink
	if d.now < d.slowUntil {
		tx *= 4
	}
	d.now += tx
}

// drain serves every queued packet.
func (d *diffStream) drain() {
	for d.s.Backlog() > 0 {
		d.dequeue(8)
		d.b.Publish()
	}
}

func (d *diffStream) snaps(k int) (got, want ClassAudit) {
	id := d.cls[k].ID()
	got, _ = d.got.ClassSnapshot(id)
	want, _ = d.want.a.ClassSnapshot(id)
	return got, want
}

// TestCumulativeDeadlinesMatchFIFO is the differential test of the
// deadline derivation: on random Enqueue/DequeueN/Correct/queue-limit-drop
// streams without retunes, every class's audit state must equal the
// per-packet FIFO oracle's after every step — with Ticks too when each
// class's packets are all one size, since the head probe is then exact.
func TestCumulativeDeadlinesMatchFIFO(t *testing.T) {
	for _, mode := range []struct {
		name         string
		fixed, ticks bool
	}{
		{"mixed-sizes", false, false},
		{"fixed-sizes-ticks", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var totals [CauseCount]uint64
			for seed := int64(1); seed <= 20; seed++ {
				d := newDiffStream(t, seed, mode.fixed, mode.ticks)
				for i := 0; i < 1500; i++ {
					d.step()
					for k := range d.cls {
						if got, want := d.snaps(k); got != want {
							t.Fatalf("seed %d step %d class %s:\n got  %+v\n want %+v", seed, i, d.cls[k].Name(), got, want)
						}
					}
				}
				d.drain()
				for k := range d.cls {
					got, want := d.snaps(k)
					if got != want {
						t.Fatalf("seed %d drained class %s:\n got  %+v\n want %+v", seed, d.cls[k].Name(), got, want)
					}
					for c, v := range want.ViolationsByCause {
						totals[c] += v
					}
				}
			}
			// The streams must exercise every cause, or equality shows little.
			for c, v := range totals {
				if v == 0 {
					t.Errorf("no %v violations across the streams (totals %v)", Cause(c), totals)
				}
			}
		})
	}
}

// TestCumulativeStallProbeNeverEarly: with mixed sizes the Tick probe
// bounds the head's cumulative work from above, so at no point may the
// Auditor have counted more checks than the FIFO oracle (a stall flagged
// early would be an extra check), and once every packet has left the
// totals and the all-time margin minimum must agree.
func TestCumulativeStallProbeNeverEarly(t *testing.T) {
	var later uint64
	for seed := int64(1); seed <= 20; seed++ {
		d := newDiffStream(t, seed, false, true)
		for i := 0; i < 1500; i++ {
			d.step()
			for k := range d.cls {
				got, want := d.snaps(k)
				if got.Checks > want.Checks {
					t.Fatalf("seed %d step %d class %s: %d checks, oracle %d — a stall flagged early", seed, i, d.cls[k].Name(), got.Checks, want.Checks)
				}
				later += want.Checks - got.Checks
			}
		}
		d.drain()
		for k := range d.cls {
			got, want := d.snaps(k)
			if got.Checks != want.Checks || got.Violations != want.Violations ||
				got.MinMarginEverNs != want.MinMarginEverNs || got.DelayMaxNs != want.DelayMaxNs {
				t.Fatalf("seed %d drained class %s: checks %d/%d violations %d/%d margin %d/%d delay %d/%d (got/oracle)",
					seed, d.cls[k].Name(), got.Checks, want.Checks, got.Violations, want.Violations,
					got.MinMarginEverNs, want.MinMarginEverNs, got.DelayMaxNs, want.DelayMaxNs)
			}
		}
	}
	if later == 0 {
		t.Error("the probe never lagged the oracle: the streams do not exercise mixed-size stalls")
	}
}

// appendSnapshot is Snapshot as it was before the class slab was sized
// up front: one append per live class. It is the oracle for Snapshot.
func appendSnapshot(a *Auditor) *Snapshot {
	a.mu.Lock()
	now := a.lastEvent
	a.mu.Unlock()
	a.Tick(now)
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &Snapshot{Now: a.lastEvent, UlimitDefers: a.ulimitDefers}
	for _, st := range a.classes {
		if st != nil {
			out.Classes = append(out.Classes, a.snapClass(st))
		}
	}
	return out
}

// TestSnapshotMatchesAppendOracle: on a random stream in which classes
// are forgotten along the way, every Snapshot equals the per-class
// append loop's.
func TestSnapshotMatchesAppendOracle(t *testing.T) {
	d := newDiffStream(t, 7, false, true)
	for i := 0; i < 3000; i++ {
		d.step()
		if i%500 == 499 {
			d.got.Forget(d.cls[(i/500)%len(d.cls)].ID())
		}
		got, want := d.got.Snapshot(), appendSnapshot(d.got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: snapshot differs from the append oracle\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}
