package hfsc_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
)

// Removed classes leave the telemetry with them: a template name cycled
// through collection and re-creation must appear once in /metrics (the
// strict exposition parser rejects duplicate samples) and once in
// Snapshot and AuditSnapshot — under its live id only — on every surface.

const forgetCycles = 4

func forgetTemplate() hfsc.ClassTemplate {
	rt, err := hfsc.ForRealTime(500, 10*time.Millisecond, hfsc.Mbps)
	if err != nil {
		panic(err)
	}
	return hfsc.ClassTemplate{
		Class: hfsc.ClassConfig{RealTime: rt, LinkShare: hfsc.Linear(hfsc.Mbps)},
		Grace: time.Millisecond,
	}
}

// checkLiveTelemetry validates the exposition and asserts that the
// snapshots hold exactly the named live classes, each under its live id.
func checkLiveTelemetry(t *testing.T, text string, snap *hfsc.Snapshot, aud *hfsc.AuditSnapshot, live map[string]int) {
	t.Helper()
	samples := validateExposition(t, text)
	for name := range live {
		key := fmt.Sprintf("hfsc_enqueued_packets_total{class=%s}", promQuote(name))
		if _, ok := samples[key]; !ok {
			t.Errorf("live class %q missing from /metrics", name)
		}
	}
	if snap == nil || aud == nil {
		t.Fatal("nil snapshot with Metrics and Audit on")
	}
	if len(snap.Classes) != len(live) {
		t.Errorf("Snapshot lists %d classes, want %d live: %+v", len(snap.Classes), len(live), classIDs(snap))
	}
	for _, c := range snap.Classes {
		if id, ok := live[c.Name]; !ok || id != c.ID {
			t.Errorf("Snapshot class %q id %d, want live id %d (live=%v)", c.Name, c.ID, id, ok)
		}
	}
	if len(aud.Classes) != len(live) {
		t.Errorf("AuditSnapshot lists %d classes, want %d live", len(aud.Classes), len(live))
	}
	for _, c := range aud.Classes {
		if id, ok := live[c.Name]; !ok || id != c.ID {
			t.Errorf("AuditSnapshot class %q id %d, want live id %d (live=%v)", c.Name, c.ID, id, ok)
		}
	}
}

func classIDs(s *hfsc.Snapshot) []string {
	var out []string
	for _, c := range s.Classes {
		out = append(out, fmt.Sprintf("%s#%d", c.Name, c.ID))
	}
	return out
}

func TestRemovedClassLeavesTelemetryScheduler(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps, Metrics: true, Audit: true})
	s.SetTemplate("t/", forgetTemplate())
	bg, err := s.AddClass(nil, "bg", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	ids := map[int]bool{}
	for cycle := 0; cycle < forgetCycles; cycle++ {
		cl, err := s.EnsureClass("t/a", now)
		if err != nil {
			t.Fatal(err)
		}
		if ids[cl.ID()] {
			t.Fatalf("cycle %d reused id %d", cycle, cl.ID())
		}
		ids[cl.ID()] = true
		for _, id := range []int{cl.ID(), bg.ID()} {
			if r := s.Offer(&hfsc.Packet{Len: 1000, Class: id, Arrival: now}, now); r != hfsc.DropNone {
				t.Fatalf("offer: %v", r)
			}
		}
		for s.Backlog() > 0 {
			s.Dequeue(now)
			now += int64(time.Millisecond)
		}
		// A re-created name starts from zero under its new id.
		if got := cl.Metrics().EnqueuedPackets; got != 1 {
			t.Fatalf("cycle %d: re-created class counts %d enqueues, want 1", cycle, got)
		}
		var buf strings.Builder
		if err := s.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		checkLiveTelemetry(t, buf.String(), s.Snapshot(), s.AuditSnapshot(),
			map[string]int{"t/a": cl.ID(), "bg": bg.ID()})
		// Two scans a grace apart: the first arms the idle clock.
		now += int64(time.Second)
		s.CollectIdle(now)
		now += int64(time.Second)
		if n := s.CollectIdle(now); n != 1 {
			t.Fatalf("cycle %d: collected %d classes, want 1", cycle, n)
		}
		if m := cl.Metrics(); m.ID != 0 || m.EnqueuedPackets != 0 {
			t.Fatalf("cycle %d: collected class still reports metrics %+v", cycle, m)
		}
		var after strings.Builder
		if err := s.WriteMetrics(&after); err != nil {
			t.Fatal(err)
		}
		checkLiveTelemetry(t, after.String(), s.Snapshot(), s.AuditSnapshot(), map[string]int{"bg": bg.ID()})
	}
}

// runningQueue is a queue under test plus the transmit/reject tallies of
// its callbacks.
type runningQueue struct {
	q *hfsc.PacedQueue
	// sent and rejected count the callbacks; lastTx is the class id of the
	// latest transmit.
	sent, rejected atomic.Uint64
	lastTx         atomic.Int64
}

func (r *runningQueue) transmit(p *hfsc.Packet) {
	r.lastTx.Store(int64(p.Class))
	r.sent.Add(1)
	p.Release()
}

func (r *runningQueue) reject(p *hfsc.Packet, _ hfsc.DropReason) {
	r.rejected.Add(1)
	p.Release()
}

// telemetry scrapes the queue's three telemetry surfaces.
func (r *runningQueue) telemetry(t *testing.T) (string, *hfsc.Snapshot, *hfsc.AuditSnapshot) {
	t.Helper()
	var buf strings.Builder
	if err := r.q.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), r.q.Snapshot(), r.q.AuditSnapshot()
}

// cycleRunning cycles "t/a" through a running queue: submit (creating
// it), wait for the transmit, check the telemetry while it is live, wait
// for the pacing loop's collection, check again. The loop collects on its
// own schedule, so a packet can find its fresh class already collected
// at drain time (refused, then retried), and the class can be gone again
// before the live check (which is then skipped for that cycle).
func cycleRunning(t *testing.T, r *runningQueue, bgID int) {
	t.Helper()
	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wait(func() bool { return r.sent.Load() > 0 }, "bg transmit")
	ids := map[int]bool{}
	for cycle := 0; cycle < forgetCycles; cycle++ {
		for {
			sent, rejected := r.sent.Load(), r.rejected.Load()
			p := hfsc.GetPacket()
			p.Len = 500
			if res := r.q.SubmitTo("t/a", p); res != hfsc.DropNone {
				t.Fatalf("cycle %d: SubmitTo: %v", cycle, res)
			}
			wait(func() bool { return r.sent.Load() > sent || r.rejected.Load() > rejected }, "transmit or reject")
			if r.sent.Load() > sent {
				break
			}
		}
		id := int(r.lastTx.Load())
		if ids[id] {
			t.Fatalf("cycle %d reused id %d", cycle, id)
		}
		ids[id] = true
		text, snap, aud := r.telemetry(t)
		// Live during the scrape only if the registry still resolves the
		// name to this id afterwards: a collected id never comes back.
		if cur, ok := r.q.ClassID("t/a"); ok && cur == id {
			checkLiveTelemetry(t, text, snap, aud, map[string]int{"bg": bgID, "t/a": id})
		}
		wait(func() bool {
			r.q.CollectIdle()
			_, ok := r.q.ClassID("t/a")
			return !ok
		}, "collection")
		text, snap, aud = r.telemetry(t)
		checkLiveTelemetry(t, text, snap, aud, map[string]int{"bg": bgID})
	}
}

// TestRemovedClassLeavesTelemetryPacedQueue cycles a template class
// through a running queue of one shard and of four.
func TestRemovedClassLeavesTelemetryPacedQueue(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := &runningQueue{}
			r.q = newTestQueue(t, hfsc.MultiConfig{
				Config: hfsc.Config{LinkRate: 100 * hfsc.Mbps, Metrics: true, Audit: true},
				Shards: shards,
			}, r.transmit)
			r.q.OnReject = r.reject
			r.q.SetTemplate("t/", forgetTemplate())
			bg, err := r.q.AddClass("", "bg", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
			if err != nil {
				t.Fatal(err)
			}
			r.q.Start()
			defer r.q.Stop()
			if res := r.q.Submit(&hfsc.Packet{Len: 500, Class: bg}); res != hfsc.DropNone {
				t.Fatalf("bg submit: %v", res)
			}
			cycleRunning(t, r, bg)
		})
	}
}
