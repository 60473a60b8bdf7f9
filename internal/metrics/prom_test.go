package metrics_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/metrics"
)

// The exposition golden freezes WritePrometheus's exact bytes for a
// synthetic snapshot covering every family and formatting edge: counters
// past 1e6 and 2^53 (rendered in %g exponent form), negative and
// fractional gauges, NaN and ±Inf rates, histograms on both default
// bucket sets, interior classes without observations (skipped), partly
// absent span histograms, escaped label values, and the auditor's
// families with and without guarantees and bounds. Regenerate with
//
//	go test ./internal/metrics -run TestWritePrometheusGolden -update-prom-golden
//
// only when the exposition is meant to change.
var updatePromGolden = flag.Bool("update-prom-golden", false,
	"rewrite testdata/exposition.golden from the current WritePrometheus")

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, syntheticSnapshot(6)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updatePromGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-prom-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s\n--- got ---\n%s", path, buf.String())
	}
	promValidate(t, buf.String())
}

// syntheticSnapshot builds a deterministic n-class snapshot (with audit
// verdicts) whose values vary per class, so every formatting path runs.
func syntheticSnapshot(n int) *metrics.Snapshot {
	names := []string{"plain", `quo"ted`, `back\slash`, "new\nline", "tenant/a"}
	hist := func(bounds []int64, seed int) metrics.HistogramSnapshot {
		h := metrics.HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
		for i := range h.Counts {
			h.Counts[i] = uint64((seed*7 + i*3) % 11)
			h.Count += h.Counts[i]
			h.Sum += int64(h.Counts[i]) * (bounds[min(i, len(bounds)-1)] - 1)
		}
		return h
	}
	rates := []float64{0, 1250.5, 3.3e9, math.NaN(), math.Inf(1), -0.25}
	s := &metrics.Snapshot{
		Now:               123_456_789,
		UlimitDefers:      1_000_000,
		DropsUnknownClass: 3,
		DropsBadPacket:    1 << 60,
		DropsIntakeFull:   12,
		DropsStopped:      0,
		SpansSampled:      99,
		SpanIntakeWait:    hist(metrics.DelayBuckets, 1),
		FlightRecorded:    123_456_789_012,
		FlightDropped:     5,
	}
	a := &audit.Snapshot{Now: s.Now, UlimitDefers: 4}
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		if i >= len(names) {
			name = fmt.Sprintf("%s-%d", name, i)
		}
		leaf := i%4 != 3
		c := metrics.ClassSnapshot{
			ID:              i + 1,
			Name:            name,
			Leaf:            leaf,
			EnqueuedPackets: uint64(i) * 999_999,
			EnqueuedBytes:   int64(i) * 1500,
			SentPacketsRT:   uint64(i * 3),
			SentBytesRT:     int64(i) * 4500,
			SentPacketsLS:   uint64(1) << (50 + i%10),
			SentBytesLS:     int64(i) * 1234567,
			DropsQueueLimit: uint64(i % 3),
			DeadlineMisses:  uint64(i % 2),
			Activations:     uint64(i + 10),
			Corrections:     uint64(i),
			CorrectedCost:   int64(i*37) - 100,
			QueuedPackets:   int64(i % 5),
			QueuedBytes:     int64(i%5) * 1000,
			RateBps:         rates[i%len(rates)],
			RateRTBps:       rates[(i+1)%len(rates)] / 3,
		}
		if leaf {
			c.DeadlineSlack = hist(metrics.SlackBuckets, i)
			c.QueueDelay = hist(metrics.DelayBuckets, i+1)
		}
		s.Classes = append(s.Classes, c)
		ca := audit.ClassAudit{
			ID:                   i + 1,
			Name:                 name,
			Guaranteed:           i%3 != 2,
			Checks:               uint64(i) * 1_000_003,
			NonConformingPeriods: uint64(i % 4),
			MinMarginNs:          int64(i-2) * 1_500_000,
			DelayMaxNs:           int64(i) * 2_000_001,
			DelayBoundNs:         int64(i%3) * 10_000_000,
			BurnRate1s:           float64(i%4) / 4,
			BurnRate30s:          float64(i%3) / 3,
			BurnRate5m:           float64(i%7) / 7,
			Verdict:              audit.Verdict(i % 3),
		}
		if i%5 == 1 {
			ca.MinMarginNs = curve.Inf
		}
		if i%5 == 2 {
			ca.DelayBoundNs = curve.Inf
		}
		for j := range ca.ViolationsByCause {
			ca.ViolationsByCause[j] = uint64((i + j) % 4)
			ca.Violations += ca.ViolationsByCause[j]
		}
		a.Classes = append(a.Classes, ca)
	}
	s.Audit = a
	return s
}

// TestWritePrometheusAllocs gates the exposition writer's allocations:
// a constant whatever the class count, never one per class or sample
// line: the writer's buffer, the class-label arena and its index, and
// each bucket set's le labels.
func TestWritePrometheusAllocs(t *testing.T) {
	const max = 12
	var allocs [2]float64
	for i, classes := range []int{16, 1024} {
		snap := syntheticSnapshot(classes)
		allocs[i] = testing.AllocsPerRun(5, func() {
			if err := metrics.WritePrometheus(io.Discard, snap); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("WritePrometheus over 16/1024 classes: %.0f/%.0f allocs", allocs[0], allocs[1])
	if allocs[0] != allocs[1] || allocs[1] > max {
		t.Fatalf("WritePrometheus: %.0f allocs at 16 classes, %.0f at 1024, want equal and <= %d", allocs[0], allocs[1], max)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			snap := syntheticSnapshot(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := metrics.WritePrometheus(io.Discard, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
