package hfsc_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
)

// scrapeAllocsMax is the most allocations one telemetry read may cost,
// whatever the class count. The largest is WriteMetrics on a four-shard
// queue: four shard snapshots (metrics and audit), their two merges,
// the class labels of both, each bucket set's le labels and the output
// buffer.
const scrapeAllocsMax = 56

// telemetrySurface is what every driver exposes to a scraper.
type telemetrySurface interface {
	WriteMetrics(io.Writer) error
	Snapshot() *hfsc.Snapshot
	AuditSnapshot() *hfsc.AuditSnapshot
}

// scrapeAllocs measures one WriteMetrics, Snapshot and AuditSnapshot.
func scrapeAllocs(t *testing.T, s telemetrySurface) (write, snap, aud float64) {
	t.Helper()
	write = testing.AllocsPerRun(20, func() {
		if err := s.WriteMetrics(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	snap = testing.AllocsPerRun(20, func() {
		if s.Snapshot() == nil {
			t.Fatal("nil snapshot")
		}
	})
	aud = testing.AllocsPerRun(20, func() {
		if s.AuditSnapshot() == nil {
			t.Fatal("nil audit snapshot")
		}
	})
	return write, snap, aud
}

// scrapeClassConfig gives every other class a real-time curve, so the
// auditor has guaranteed classes with margins and delay bounds to copy.
func scrapeClassConfig(i int) hfsc.ClassConfig {
	cfg := hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}
	if i%2 == 0 {
		cfg.RealTime = hfsc.Linear(hfsc.Mbps)
	}
	return cfg
}

// scrapeScheduler builds an unpaced scheduler with every sink on and n
// leaf classes that have each sent one packet.
func scrapeScheduler(t *testing.T, n int) telemetrySurface {
	t.Helper()
	s := hfsc.New(hfsc.Config{LinkRate: 1 << 40, Metrics: true, Audit: true, Flight: true, Spans: 4})
	now := int64(0)
	for i := 0; i < n; i++ {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i), scrapeClassConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		if r := s.Offer(&hfsc.Packet{Len: 100, Class: cl.ID()}, now); r != hfsc.DropNone {
			t.Fatalf("offer refused: %v", r)
		}
	}
	for s.Dequeue(now) != nil {
		now += 1000
	}
	return s
}

// scrapeQueue builds a paced queue of the given shard count with every
// sink on and n leaf classes that have each sent one packet; the queue
// is stopped again before it is measured, so no pacing goroutine
// allocates behind the measurement.
func scrapeQueue(t *testing.T, shards, n int) telemetrySurface {
	t.Helper()
	q, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: 1 << 40, Metrics: true, Audit: true, Flight: true, Spans: 4},
		Shards: shards,
	}, func(*hfsc.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	q.IntakeDepth = 2 * n
	for i := 0; i < n; i++ {
		id, err := q.AddClass("", fmt.Sprintf("c%d", i), scrapeClassConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		if r := q.Submit(&hfsc.Packet{Len: 100, Class: id}); r != hfsc.DropNone {
			t.Fatalf("submit refused: %v", r)
		}
	}
	q.Start()
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().SentPackets < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("sent %d of %d packets", q.Stats().SentPackets, n)
		}
		time.Sleep(time.Millisecond)
	}
	q.Stop()
	return q
}

// TestScrapeAllocsConstant: a telemetry read costs the same number of
// allocations at 16 classes as at 1024, and no more than
// scrapeAllocsMax — scrapes must not allocate per class.
func TestScrapeAllocsConstant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, n int) telemetrySurface
	}{
		{"scheduler", scrapeScheduler},
		{"paced-1", func(t *testing.T, n int) telemetrySurface { return scrapeQueue(t, 1, n) }},
		{"paced-4", func(t *testing.T, n int) telemetrySurface { return scrapeQueue(t, 4, n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w16, s16, a16 := scrapeAllocs(t, tc.build(t, 16))
			w1k, s1k, a1k := scrapeAllocs(t, tc.build(t, 1024))
			t.Logf("allocs at 16/1024 classes: WriteMetrics %.0f/%.0f, Snapshot %.0f/%.0f, AuditSnapshot %.0f/%.0f",
				w16, w1k, s16, s1k, a16, a1k)
			for _, m := range []struct {
				what      string
				few, many float64
			}{{"WriteMetrics", w16, w1k}, {"Snapshot", s16, s1k}, {"AuditSnapshot", a16, a1k}} {
				if m.few != m.many {
					t.Errorf("%s: %.0f allocations at 16 classes, %.0f at 1024", m.what, m.few, m.many)
				}
				if m.many > scrapeAllocsMax {
					t.Errorf("%s: %.0f allocations, want <= %d", m.what, m.many, scrapeAllocsMax)
				}
			}
		})
	}
}
