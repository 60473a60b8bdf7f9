package hfsc_test

import (
	"strings"
	"testing"

	hfsc "github.com/netsched/hfsc"
)

// End-to-end metrics through the public API: drive traffic, then check the
// snapshot numbers and the Prometheus rendering agree with the class
// counters the scheduler already exposed.
func TestPublicMetricsPipeline(t *testing.T) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps, DefaultQueueLimit: 4, Metrics: true})
	audio, err := s.AddClass(nil, "audio", hfsc.ClassConfig{
		RealTime:  hfsc.Linear(hfsc.Mbps),
		LinkShare: hfsc.Linear(hfsc.Mbps),
	})
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := s.AddClass(nil, "bulk", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
	if err != nil {
		t.Fatal(err)
	}

	now := int64(0)
	for i := 0; i < 300; i++ {
		s.Offer(&hfsc.Packet{Len: 200, Class: audio.ID()}, now)
		for j := 0; j < 3; j++ { // overdrive bulk to force queue-limit drops
			s.Offer(&hfsc.Packet{Len: 1200, Class: bulk.ID()}, now)
		}
		s.Dequeue(now)
		s.Dequeue(now)
		now += 2_000_000
	}
	for s.Backlog() > 0 {
		s.Dequeue(now)
		now += 1_000_000
	}

	snap := s.Snapshot()
	if snap == nil {
		t.Fatal("Snapshot nil with metrics enabled")
	}
	for _, cl := range []*hfsc.Class{audio, bulk} {
		cs := cl.Metrics()
		if cs.Name != cl.Name() {
			t.Fatalf("Class.Metrics name %q want %q", cs.Name, cl.Name())
		}
		stats := cl.Stats()
		if cs.SentPackets() != stats.SentPackets {
			t.Fatalf("%s: metrics sent %d, stats %d", cl.Name(), cs.SentPackets(), stats.SentPackets)
		}
		if cs.DropsQueueLimit != stats.Dropped {
			t.Fatalf("%s: metrics drops %d, stats %d", cl.Name(), cs.DropsQueueLimit, stats.Dropped)
		}
		if cs.QueuedPackets != 0 {
			t.Fatalf("%s: queue gauge %d after drain", cl.Name(), cs.QueuedPackets)
		}
	}
	a := audio.Metrics()
	if a.SentPacketsRT == 0 {
		t.Fatal("audio never served under the real-time criterion")
	}
	if a.DeadlineSlack.Count != a.SentPacketsRT {
		t.Fatalf("slack samples %d != rt dequeues %d", a.DeadlineSlack.Count, a.SentPacketsRT)
	}
	if a.DeadlineSlack.Quantile(0.5) <= 0 {
		t.Fatal("audio median slack not positive: deadlines being missed in an admissible config")
	}
	if bulk.Metrics().DropsQueueLimit == 0 {
		t.Fatal("overdriven bulk class recorded no drops")
	}

	var buf strings.Builder
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hfsc_sent_packets_total{class="audio",crit="rt"}`,
		`hfsc_drops_total{class="bulk",reason="queue_limit"}`,
		`hfsc_deadline_slack_seconds_bucket{class="audio",le="+Inf"}`,
		`hfsc_queue_delay_seconds_count{class="bulk"}`,
		`hfsc_service_rate_bytes_per_second{class="audio",crit="rt"}`,
		"# TYPE hfsc_deadline_slack_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q\n---\n%s", want, out)
		}
	}
}
