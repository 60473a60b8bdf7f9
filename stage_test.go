package hfsc_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/flight"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/pktq"
)

// sinks is one full set of telemetry sinks.
type sinks struct {
	agg *metrics.Aggregator
	rec *flight.Recorder
	aud *audit.Auditor
}

func newSinks(link uint64) sinks {
	return sinks{
		agg: metrics.NewAggregator(),
		rec: flight.New(1 << 17),
		aud: audit.New(link),
	}
}

// tee feeds every core event to one sink set per event (Trace) and to a
// staging batch in front of another.
type tee struct {
	direct sinks
	batch  *core.Batch
}

func (t *tee) Trace(ev core.Event, cl *core.Class, p *pktq.Packet, now, aux int64) {
	t.direct.agg.Trace(ev, cl, p, now, aux)
	t.direct.rec.Trace(ev, cl, p, now, aux)
	t.direct.aud.Trace(ev, cl, p, now, aux)
	t.batch.Trace(ev, cl, p, now, aux)
}

// Staging must not change what the sinks compute: one seeded run on a
// 64-class tree with real-time, link-sharing and upper-limit curves, under
// random Offer / DequeueN / Correct / SetCurves / audit ticks, fed per
// event to one sink set and through a batch published at random points to
// another, leaves identical metrics snapshots, audit snapshots and flight
// streams. As in the public scheduler, the batch is published before
// anything reads sink state or changes what a sink reads from a class
// (curve retunes, audit ticks).
func TestStagedSinksMatchPerEvent(t *testing.T) {
	const link = 10_000_000 // bytes/s
	direct, staged := newSinks(link), newSinks(link)
	tr := &tee{direct: direct, batch: core.NewBatch(staged.agg, staged.rec, staged.aud)}
	s := core.New(core.Options{Tracer: tr, DefaultQueueLimit: 6})
	rng := rand.New(rand.NewPCG(18, 64))

	// 8 groups of 7 leaves: 64 classes under the root.
	var leaves []*core.Class
	curves := func(i int) (rsc, fsc, usc curve.SC) {
		rate := uint64(link / 64)
		if i%3 != 2 {
			rsc = curve.SC{M1: 3 * rate, D: 5_000_000, M2: rate}
		}
		fsc = curve.Linear(rate)
		if i%4 == 1 {
			usc = curve.Linear(2 * rate)
		}
		return
	}
	for g := 0; g < 8; g++ {
		grp, err := s.AddClass(nil, fmt.Sprintf("g%d", g), curve.SC{}, curve.Linear(link/8), curve.SC{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 7; k++ {
			rsc, fsc, usc := curves(len(leaves))
			cl, err := s.AddClass(grp, fmt.Sprintf("g%d.%d", g, k), rsc, fsc, usc)
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, cl)
		}
	}

	var (
		now, seq uint64
		out      []*pktq.Packet
		served   []*pktq.Packet
		publish  int
	)
	for step := 0; step < 30_000; step++ {
		now += uint64(rng.IntN(200_000))
		at := int64(now)
		switch op := rng.IntN(100); {
		case op < 55:
			seq++
			cl := leaves[rng.IntN(len(leaves))]
			s.Enqueue(&pktq.Packet{Len: 64 + rng.IntN(1437), Class: cl.ID(), Seq: seq, Arrival: at}, at)
		case op < 80:
			out = s.DequeueN(at, 1+rng.IntN(4), out[:0])
			served = append(served, out...)
		case op < 93:
			if len(served) == 0 {
				continue
			}
			p := served[rng.IntN(len(served))]
			s.Correct(s.ClassByID(p.Class), p.Work(), int64(rng.IntN(3000)), p.Crit, at)
		case op < 96:
			tr.batch.Publish()
			i := rng.IntN(len(leaves))
			rsc, fsc, usc := curves(i)
			scale := func(sc curve.SC) curve.SC {
				k := uint64(1 + rng.IntN(3))
				return curve.SC{M1: sc.M1 * k, D: sc.D, M2: sc.M2 * k}
			}
			if !rsc.IsZero() {
				rsc = scale(rsc)
			}
			if err := s.SetCurves(leaves[i], rsc, scale(fsc), usc, at); err != nil {
				t.Fatal(err)
			}
		default:
			tr.batch.Publish()
			direct.aud.Tick(at)
			staged.aud.Tick(at)
		}
		if rng.IntN(7) == 0 {
			tr.batch.Publish()
			publish++
		}
	}
	tr.batch.Publish()
	if publish < 1000 || direct.rec.Recorded() < 50_000 {
		t.Fatalf("weak run: %d publishes, %d events", publish, direct.rec.Recorded())
	}

	if a, b := direct.agg.Snapshot(), staged.agg.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("metrics snapshots differ:\nper-event %+v\nstaged    %+v", a, b)
	}
	if a, b := direct.aud.Snapshot(), staged.aud.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("audit snapshots differ:\nper-event %+v\nstaged    %+v", a, b)
	}
	ra, ca := direct.rec.ReadSince(0, nil)
	rb, cb := staged.rec.ReadSince(0, nil)
	if ca != cb || !reflect.DeepEqual(ra, rb) {
		t.Errorf("flight streams differ: %d records to %d vs %d to %d", len(ra), ca, len(rb), cb)
	}
	// The run must reach every event kind the sinks fold.
	var drops, corrections, misses uint64
	for _, c := range direct.agg.Snapshot().Classes {
		drops += c.DropsQueueLimit
		corrections += c.Corrections
		misses += c.DeadlineMisses
	}
	if drops == 0 || corrections == 0 || misses == 0 || direct.agg.Snapshot().UlimitDefers == 0 {
		t.Errorf("weak run: %d drops, %d corrections, %d deadline misses, %d deferrals",
			drops, corrections, misses, direct.agg.Snapshot().UlimitDefers)
	}
}

// classSnap finds a class's slice of a metrics snapshot.
func classSnap(snap *hfsc.Snapshot, id int) hfsc.ClassSnapshot {
	for _, c := range snap.Classes {
		if c.ID == id {
			return c
		}
	}
	return hfsc.ClassSnapshot{}
}

// Telemetry is published before the pacing goroutine hands anything to a
// callback: inside Transmit for packet k, Snapshot already counts k's
// dequeue and FlightEvents holds k's transmit record; inside OnReject the
// drop is already counted. At one shard and at four.
func TestPacedTelemetryVisibleInCallbacks(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const sendN, tightN = 120, 40
			var (
				q        *hfsc.PacedQueue
				mu       sync.Mutex
				sent     = map[int]uint64{}
				rejected = map[int]uint64{}
				fails    []string
				buf      []hfsc.FlightRecord
				done     = make(chan struct{})
				left     = sendN + tightN
			)
			fail := func(format string, args ...any) {
				if len(fails) < 5 {
					fails = append(fails, fmt.Sprintf(format, args...))
				}
			}
			leave := func() {
				if left--; left == 0 {
					close(done)
				}
			}
			tx := func(p *hfsc.Packet) {
				mu.Lock()
				defer mu.Unlock()
				sent[p.Class]++
				if got := classSnap(q.Snapshot(), p.Class); got.SentPackets() < sent[p.Class] {
					fail("transmit of seq %d: snapshot counts %d sent on class %d, want >= %d", p.Seq, got.SentPackets(), p.Class, sent[p.Class])
				}
				buf = q.FlightEvents(buf[:0])
				found := false
				for _, r := range buf {
					if r.Ev.String() == "transmit" && r.PktSeq == p.Seq && int(r.Class) == p.Class {
						found = true
						break
					}
				}
				if !found {
					fail("transmit of seq %d on class %d: no transmit record among %d flight events", p.Seq, p.Class, len(buf))
				}
				leave()
			}
			cfg := hfsc.Config{LinkRate: 2_000_000, Metrics: true, Flight: true, Audit: true}
			var err error
			if shards == 1 {
				q, err = hfsc.NewPacedQueue(hfsc.New(cfg), tx)
			} else {
				q, err = hfsc.NewMultiQueue(hfsc.MultiConfig{Config: cfg, Shards: shards}, tx)
			}
			if err != nil {
				t.Fatal(err)
			}
			q.OnReject = func(p *hfsc.Packet, r hfsc.DropReason) {
				mu.Lock()
				defer mu.Unlock()
				rejected[p.Class]++
				if got := classSnap(q.Snapshot(), p.Class); r != hfsc.DropQueueLimit || got.DropsQueueLimit < rejected[p.Class] {
					fail("reject %v of seq %d: snapshot counts %d queue-limit drops on class %d, want >= %d", r, p.Seq, got.DropsQueueLimit, p.Class, rejected[p.Class])
				}
				leave()
			}
			var ids []int
			for i := 0; i < 4; i++ {
				id, err := q.AddClass("", fmt.Sprintf("c%d", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(400_000)})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			// A one-packet queue fed a burst: all but a few are refused at drain.
			tight, err := q.AddClass("", "tight", hfsc.ClassConfig{LinkShare: hfsc.Linear(10_000), QueueLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			q.Start()
			defer q.Stop()
			seq := uint64(0)
			for i := 0; i < tightN; i++ {
				seq++
				if r := q.Submit(&hfsc.Packet{Len: 100, Class: tight, Seq: seq}); r != hfsc.DropNone {
					t.Fatalf("submit: %v", r)
				}
			}
			for i := 0; i < sendN; i++ {
				seq++
				if r := q.Submit(&hfsc.Packet{Len: 200, Class: ids[i%len(ids)], Seq: seq}); r != hfsc.DropNone {
					t.Fatalf("submit: %v", r)
				}
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				mu.Lock()
				t.Fatalf("timed out with %d packets outstanding", left)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, f := range fails {
				t.Error(f)
			}
			if rejected[tight] == 0 {
				t.Error("no packet was refused at drain time")
			}
		})
	}
}

// A standalone Scheduler publishes before each exported call returns.
func TestOfferVisibleOnReturn(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: 1_000_000, Metrics: true, Flight: true, Audit: true})
	cl, err := s.AddClass(nil, "a", hfsc.ClassConfig{RealTime: hfsc.Linear(500_000), LinkShare: hfsc.Linear(500_000)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if r := s.Offer(&hfsc.Packet{Len: 100, Class: cl.ID(), Seq: uint64(i)}, int64(i)); r != hfsc.DropNone {
			t.Fatal(r)
		}
		if got := cl.Metrics().EnqueuedPackets; got != uint64(i) {
			t.Fatalf("after offer %d: %d enqueues counted", i, got)
		}
		if got := s.FlightRecorder().Recorded(); got == 0 {
			t.Fatalf("after offer %d: flight recorder empty", i)
		}
	}
	if s.Dequeue(10) == nil {
		t.Fatal("dequeue idled")
	}
	if m := cl.Metrics(); m.SentPackets() != 1 {
		t.Fatalf("after dequeue: %d sent counted", m.SentPackets())
	}
	s.Correct(cl, 100, 300, hfsc.ByRealTime, 11)
	if got := cl.Metrics().Corrections; got != 1 {
		t.Fatalf("after correct: %d corrections counted", got)
	}
	if got := cl.ClassAudit().Checks; got == 0 {
		t.Fatal("after dequeue: audit counted no check")
	}
}
