// Benchmarks regenerating the paper's evaluation artifacts.
//
// Two kinds live here:
//
//   - Benchmark<ExperimentID> runs the corresponding table/figure
//     reproduction end-to-end (internal/experiments) and fails if a shape
//     check regresses; ns/op is the cost of regenerating the artifact.
//   - BenchmarkOverhead* measures the paper's computation-overhead table
//     (TBL-O1): per-packet enqueue+dequeue cost versus the number of
//     classes, for flat and deep hierarchies. The paper's claim is
//     O(log n) growth.
//
// Run: go test -bench=. -benchmem
package hfsc_test

import (
	"fmt"
	"testing"

	"github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/experiments"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/pfq"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/sced"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn := experiments.Registry[id]
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep := fn()
		if failed := rep.Failed(); len(failed) > 0 {
			b.Fatalf("shape checks failed: %v", failed)
		}
	}
}

func BenchmarkFig2(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkExp1(b *testing.B)           { benchExperiment(b, "exp1") }
func BenchmarkExp2(b *testing.B)           { benchExperiment(b, "exp2") }
func BenchmarkExp3(b *testing.B)           { benchExperiment(b, "exp3") }
func BenchmarkExp4(b *testing.B)           { benchExperiment(b, "exp4") }
func BenchmarkExp5(b *testing.B)           { benchExperiment(b, "exp5") }
func BenchmarkExp6(b *testing.B)           { benchExperiment(b, "exp6") }
func BenchmarkExp7(b *testing.B)           { benchExperiment(b, "exp7") }
func BenchmarkTblA1(b *testing.B)          { benchExperiment(b, "tbla1") }
func BenchmarkAblationVT(b *testing.B)     { benchExperiment(b, "abl2") }
func BenchmarkAblationUlimit(b *testing.B) { benchExperiment(b, "abl3") }

// buildFlat creates n real-time+link-sharing leaves under the root.
func buildFlat(b testing.TB, n int) (*core.Scheduler, []int) {
	b.Helper()
	s := core.New(core.Options{})
	rate := uint64(1_250_000_000) / uint64(n)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i),
			curve.SC{M1: 2 * rate, D: 10_000_000, M2: rate}, curve.Linear(rate), curve.SC{})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = cl.ID()
	}
	return s, ids
}

// buildDeep spreads n leaves across a hierarchy of the given depth.
func buildDeep(b testing.TB, n, depth int) (*core.Scheduler, []int) {
	b.Helper()
	s := core.New(core.Options{})
	rate := uint64(1_250_000_000)
	parents := []*core.Class{nil}
	for lvl := 0; lvl < depth-1; lvl++ {
		var next []*core.Class
		for i, p := range parents {
			for j := 0; j < 4 && len(next) < (n+3)/4; j++ {
				cl, err := s.AddClass(p, fmt.Sprintf("i%d.%d.%d", lvl, i, j),
					curve.SC{}, curve.Linear(rate/uint64(len(parents)*4)), curve.SC{})
				if err != nil {
					b.Fatal(err)
				}
				next = append(next, cl)
			}
		}
		parents = next
	}
	leafRate := rate / uint64(n)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		cl, err := s.AddClass(parents[i%len(parents)], fmt.Sprintf("leaf%d", i),
			curve.SC{M1: 2 * leafRate, D: 10_000_000, M2: leafRate}, curve.Linear(leafRate), curve.SC{})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = cl.ID()
	}
	return s, ids
}

// pump measures one enqueue plus one dequeue per iteration in steady
// state, reporting ns per packet.
func pump(b *testing.B, s *core.Scheduler, ids []int) {
	b.Helper()
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 800
		s.Enqueue(&pktq.Packet{Len: 1000, Class: ids[i%len(ids)], Seq: uint64(i)}, now)
		if p := s.Dequeue(now); p == nil {
			b.Fatal("scheduler idled")
		}
	}
}

// BenchmarkOverheadFlat is TBL-O1's main series: per-packet cost vs class
// count on a flat hierarchy of real-time+link-sharing leaves.
func BenchmarkOverheadFlat(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			s, ids := buildFlat(b, n)
			pump(b, s, ids)
		})
	}
}

// buildFlatTraced is buildFlat with the metrics aggregator attached, for
// measuring the observability pipeline's overhead on the hot path.
func buildFlatTraced(b testing.TB, n int) (*core.Scheduler, []int) {
	b.Helper()
	s := core.New(core.Options{
		Tracer: metrics.NewAggregator(),
	})
	rate := uint64(1_250_000_000) / uint64(n)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i),
			curve.SC{M1: 2 * rate, D: 10_000_000, M2: rate}, curve.Linear(rate), curve.SC{})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = cl.ID()
	}
	return s, ids
}

// BenchmarkOverheadFlatMetrics repeats BenchmarkOverheadFlat with the
// metrics aggregator attached; the delta against the plain series is the
// per-packet price of always-on observability.
func BenchmarkOverheadFlatMetrics(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			s, ids := buildFlatTraced(b, n)
			pump(b, s, ids)
		})
	}
}

// BenchmarkOverheadDeep repeats the series on a depth-4 hierarchy: the
// link-sharing cascade adds a per-level constant.
func BenchmarkOverheadDeep(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			s, ids := buildDeep(b, n, 4)
			pump(b, s, ids)
		})
	}
}

// buildDeferred builds the firstFit worst case: n-1 link-sharing leaves
// whose upper-limit curves defer them (almost) forever after one packet of
// service, plus one unconstrained leaf whose tiny link-sharing rate pins
// its virtual time to the far right of the vt-tree. Steady state then
// serves only that last leaf, so every dequeue must skip all deferred
// siblings: a linear scan in a naive firstFit, a single descent in the
// augmented one.
func buildDeferred(b testing.TB, n int) (*core.Scheduler, int) {
	b.Helper()
	s := core.New(core.Options{})
	rate := uint64(1_250_000_000) / uint64(n)
	for i := 0; i < n-1; i++ {
		_, err := s.AddClass(nil, fmt.Sprintf("capped%d", i),
			curve.SC{}, curve.Linear(rate), curve.Linear(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	open, err := s.AddClass(nil, "open", curve.SC{}, curve.Linear(1), curve.SC{})
	if err != nil {
		b.Fatal(err)
	}
	return s, open.ID()
}

// primeDeferred backlogs every class and serves each capped leaf once so
// its upper limit kicks in, leaving only the open leaf servable.
func primeDeferred(b testing.TB, s *core.Scheduler, openID, n int) {
	b.Helper()
	now := int64(0)
	for _, c := range s.Classes() {
		if c.IsLeaf() && c != s.Root() {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: c.ID()}, now)
			s.Enqueue(&pktq.Packet{Len: 1000, Class: c.ID()}, now)
		}
	}
	for i := 0; i < n-1; i++ {
		if p := s.Dequeue(now); p == nil {
			b.Fatal("priming dequeue idled")
		}
	}
}

// BenchmarkFirstFitDeferred is the upper-limit worst case of the
// link-sharing criterion: all but one sibling deferred. The paper's O(log n)
// claim requires per-dequeue cost to grow logarithmically here.
func BenchmarkFirstFitDeferred(b *testing.B) {
	for _, n := range []int{16, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			s, openID := buildDeferred(b, n)
			primeDeferred(b, s, openID, n)
			now := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 800
				p := s.Dequeue(now)
				if p == nil {
					b.Fatal("scheduler idled")
				}
				if p.Class != openID {
					b.Fatalf("served class %d, want open leaf %d", p.Class, openID)
				}
				p.Crit = 0
				s.Enqueue(p, now)
			}
		})
	}
}

// BenchmarkNextReady measures the retry-time query with every active class
// deferred by an upper limit: the naive implementation walks all of them.
func BenchmarkNextReady(b *testing.B) {
	for _, n := range []int{16, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			s := core.New(core.Options{})
			rate := uint64(1_250_000_000) / uint64(n)
			for i := 0; i < n; i++ {
				_, err := s.AddClass(nil, fmt.Sprintf("capped%d", i),
					curve.SC{}, curve.Linear(rate), curve.Linear(1))
				if err != nil {
					b.Fatal(err)
				}
			}
			now := int64(0)
			for _, c := range s.Classes() {
				if c.IsLeaf() && c != s.Root() {
					s.Enqueue(&pktq.Packet{Len: 1000, Class: c.ID()}, now)
					s.Enqueue(&pktq.Packet{Len: 1000, Class: c.ID()}, now)
				}
			}
			for i := 0; i < n; i++ {
				if p := s.Dequeue(now); p == nil {
					b.Fatal("priming dequeue idled")
				}
			}
			if p := s.Dequeue(now); p != nil {
				b.Fatal("expected all classes deferred")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.NextReady(now); !ok {
					b.Fatal("no retry time despite backlog")
				}
			}
		})
	}
}

// BenchmarkSteadyStateAllocs reports allocations per enqueue+dequeue pair
// in steady state with packet reuse: the hot path itself should be
// allocation-free (the rbtree node free list and in-place repositioning).
func BenchmarkSteadyStateAllocs(b *testing.B) {
	s, ids := buildFlat(b, 256)
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 800
		p := s.Dequeue(now)
		if p == nil {
			b.Fatal("scheduler idled")
		}
		p.Crit = 0
		s.Enqueue(p, now)
	}
}

// BenchmarkCoreRoundRobin is the core's round-robin pattern: an 8×8
// equal-share link-sharing tree with every leaf backlogged, so each
// dequeue moves the served leaf and its parent from the smallest to the
// largest virtual time among their siblings — a vt-tree removal and
// reinsertion at two levels per packet, the core's share of a 64-leaf
// shaper. The steady state must not allocate.
func BenchmarkCoreRoundRobin(b *testing.B) {
	const fan = 8
	const rate = uint64(1_250_000_000)
	s := core.New(core.Options{})
	var ids []int
	for g := 0; g < fan; g++ {
		gc, err := s.AddClass(nil, fmt.Sprintf("g%d", g), curve.SC{}, curve.Linear(rate/fan), curve.SC{})
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < fan; k++ {
			lc, err := s.AddClass(gc, fmt.Sprintf("g%d.%d", g, k), curve.SC{}, curve.Linear(rate/(fan*fan)), curve.SC{})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, lc.ID())
		}
	}
	now := int64(0)
	for _, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 64, Class: id}, now)
		s.Enqueue(&pktq.Packet{Len: 64, Class: id}, now)
	}
	step := func() {
		now += 52
		p := s.Dequeue(now)
		if p == nil {
			b.Fatal("scheduler idled")
		}
		p.Crit = 0
		s.Enqueue(p, now)
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		b.Fatalf("steady state allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDequeueNBurst measures the batched dequeue path: one DequeueN
// call draining a 32-packet burst, versus 32 Dequeue calls.
func BenchmarkDequeueNBurst(b *testing.B) {
	const n, burst = 256, 32
	s, ids := buildFlat(b, n)
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	out := make([]*pktq.Packet, 0, burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 800 * burst
		out = s.DequeueN(now, burst, out[:0])
		if len(out) == 0 {
			b.Fatal("scheduler idled")
		}
		for _, p := range out {
			p.Crit = 0
			s.Enqueue(p, now)
		}
	}
}

// telemetryAll builds a public scheduler with every telemetry sink on
// (metrics, flight recorder, auditor, 1-in-64 spans) and 64 real-time +
// link-sharing leaves holding two packets each, and returns it with one
// Offer + DequeueN round: a burst of eight departures at a link-paced
// clock, each offered straight back. The sinks' per-class state is warm
// on return.
func telemetryAll(tb testing.TB) (*hfsc.Scheduler, func()) {
	tb.Helper()
	const (
		link   = 125_000_000 // 1 Gb/s
		leaves = 64
		burst  = 8
	)
	s := hfsc.New(hfsc.Config{LinkRate: link, Metrics: true, Flight: true, Audit: true, Spans: 64})
	rate := uint64(link / leaves)
	for i := 0; i < leaves; i++ {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i), hfsc.ClassConfig{
			RealTime:  hfsc.Curve(2*rate, 10_000_000, rate),
			LinkShare: hfsc.Linear(rate),
		})
		if err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if r := s.Offer(&hfsc.Packet{Len: 1000, Class: cl.ID(), Seq: uint64(2*i + k)}, 0); r != hfsc.DropNone {
				tb.Fatalf("prime offer refused: %v", r)
			}
		}
	}
	out := make([]*hfsc.Packet, 0, burst)
	now := int64(0)
	cycle := func() {
		now += burst * 8_000 // 8 × 1000 B at 1 Gb/s
		out = s.DequeueN(now, burst, out[:0])
		if len(out) == 0 {
			tb.Fatal("scheduler idled")
		}
		for _, p := range out {
			p.Crit = hfsc.ByNone
			p.Arrival = now
			if r := s.Offer(p, now); r != hfsc.DropNone {
				tb.Fatalf("offer refused: %v", r)
			}
		}
	}
	for i := 0; i < leaves; i++ { // every packet around the tree a few times
		cycle()
	}
	return s, cycle
}

// BenchmarkTelemetryAll is the per-packet price of the whole telemetry
// stack on the public scheduler: ns/op is one Offer + DequeueN round of
// eight packets with metrics, flight recorder, auditor and spans on.
func BenchmarkTelemetryAll(b *testing.B) {
	_, cycle := telemetryAll(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestSteadyStateZeroAllocs asserts the tentpole allocation guarantee: once
// warm, enqueue+dequeue cycles (including activation/passivation churn,
// upper-limit repositions and batched draining) allocate nothing — rbtree
// nodes come from the per-tree free lists and in-place repositioning keeps
// handles stable.
func TestSteadyStateZeroAllocs(t *testing.T) {
	t.Run("flat-rt", func(t *testing.T) {
		s, ids := buildFlat(t, 256)
		now := int64(0)
		for i, id := range ids {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
		}
		checkZeroAllocs(t, func() {
			now += 800
			p := s.Dequeue(now)
			if p == nil {
				t.Fatal("scheduler idled")
			}
			p.Crit = 0
			s.Enqueue(p, now)
		})
	})
	t.Run("deep", func(t *testing.T) {
		s, ids := buildDeep(t, 64, 4)
		now := int64(0)
		for i, id := range ids {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
		}
		checkZeroAllocs(t, func() {
			now += 800
			p := s.Dequeue(now)
			if p == nil {
				t.Fatal("scheduler idled")
			}
			p.Crit = 0
			s.Enqueue(p, now)
		})
	})
	t.Run("deferred-ulimit", func(t *testing.T) {
		s, openID := buildDeferred(t, 64)
		primeDeferred(t, s, openID, 64)
		now := int64(0)
		checkZeroAllocs(t, func() {
			now += 800
			p := s.Dequeue(now)
			if p == nil {
				t.Fatal("scheduler idled")
			}
			p.Crit = 0
			s.Enqueue(p, now)
		})
	})
	t.Run("metrics-enabled", func(t *testing.T) {
		// The aggregator itself must not break the guarantee: histograms,
		// EWMAs and per-class state all work in place once warm.
		s, ids := buildFlatTraced(t, 256)
		now := int64(0)
		for i, id := range ids {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
		}
		checkZeroAllocs(t, func() {
			now += 800
			p := s.Dequeue(now)
			if p == nil {
				t.Fatal("scheduler idled")
			}
			p.Crit = 0
			s.Enqueue(p, now)
		})
	})
	t.Run("telemetry-all", func(t *testing.T) {
		// Every sink on — metrics, flight recorder, auditor, spans — behind
		// the public wrapper's staging batch: the Offer + DequeueN cycle
		// stays free once the sinks' per-class state is warm.
		s, cycle := telemetryAll(t)
		checkZeroAllocs(t, cycle)
		if s.FlightRecorder().Recorded() == 0 || s.Snapshot().Classes == nil || s.AuditSnapshot() == nil {
			t.Fatal("a sink captured nothing")
		}
	})
	t.Run("public-flight-spans", func(t *testing.T) {
		// The public wrapper with the recorder and 1-in-64 span sampling
		// configured: Dequeue/Offer stay free — span bookkeeping is one
		// int64 stamp on the packet, and the recorder never allocates.
		s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps, Metrics: true, Flight: true, Spans: 64})
		cl, err := s.AddClass(nil, "a", hfsc.ClassConfig{
			RealTime:  hfsc.Linear(hfsc.Mbps),
			LinkShare: hfsc.Linear(hfsc.Mbps),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &hfsc.Packet{Len: 1000, Class: cl.ID()}
		now := int64(0)
		s.Offer(p, now)
		checkZeroAllocs(t, func() {
			now += 800
			q := s.Dequeue(now)
			if q == nil {
				t.Fatal("scheduler idled")
			}
			q.Crit = 0
			if s.Offer(q, now) != hfsc.DropNone {
				t.Fatal("offer refused")
			}
		})
		if s.FlightRecorder() == nil || s.FlightRecorder().Recorded() == 0 {
			t.Fatal("flight recorder captured nothing")
		}
	})
	t.Run("submit-spans", func(t *testing.T) {
		// Submit with span sampling enabled on a never-started queue: the
		// intake push and the 1-in-N stamp must not touch the heap. Global
		// malloc counting (not the calling goroutine's) would catch an
		// allocation anywhere in the path.
		s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps, Metrics: true, Flight: true, Spans: 2})
		cl, err := s.AddClass(nil, "a", hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)})
		if err != nil {
			t.Fatal(err)
		}
		q, err := hfsc.NewPacedQueue(s, func(p *hfsc.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		// Never started, so nothing drains the rings: size them to hold
		// every Submit the warmup plus the measured runs will issue.
		q.IntakeDepth = 8192
		pkts := make([]*hfsc.Packet, 64)
		for i := range pkts {
			pkts[i] = &hfsc.Packet{Len: 100, Class: cl.ID(), Seq: uint64(i)}
		}
		i := 0
		checkZeroAllocs(t, func() {
			if r := q.Submit(pkts[i%len(pkts)]); r != hfsc.DropNone {
				t.Fatalf("submit refused: %v", r)
			}
			i++
		})
	})
	t.Run("public-offer-disabled", func(t *testing.T) {
		// The public wrapper's Offer path without Config.Metrics: the
		// validation and nil-aggregator checks must stay free.
		s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Mbps})
		cl, err := s.AddClass(nil, "a", hfsc.ClassConfig{
			RealTime:  hfsc.Linear(hfsc.Mbps),
			LinkShare: hfsc.Linear(hfsc.Mbps),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &hfsc.Packet{Len: 1000, Class: cl.ID()}
		now := int64(0)
		s.Offer(p, now)
		checkZeroAllocs(t, func() {
			now += 800
			q := s.Dequeue(now)
			if q == nil {
				t.Fatal("scheduler idled")
			}
			q.Crit = 0
			if s.Offer(q, now) != hfsc.DropNone {
				t.Fatal("offer refused")
			}
		})
	})
	t.Run("dequeue-n", func(t *testing.T) {
		const burst = 16
		s, ids := buildFlat(t, 256)
		now := int64(0)
		for i, id := range ids {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
		}
		out := make([]*pktq.Packet, 0, burst)
		checkZeroAllocs(t, func() {
			now += 800 * burst
			out = s.DequeueN(now, burst, out[:0])
			if len(out) == 0 {
				t.Fatal("scheduler idled")
			}
			for _, p := range out {
				p.Crit = 0
				s.Enqueue(p, now)
			}
		})
	})
}

// checkZeroAllocs warms fn, then asserts it performs zero allocations per
// run in steady state.
func checkZeroAllocs(t *testing.T, fn func()) {
	t.Helper()
	for i := 0; i < 2000; i++ { // warm queues, tree free lists and buffers
		fn()
	}
	if allocs := testing.AllocsPerRun(500, fn); allocs != 0 {
		t.Fatalf("steady state allocates %.2f allocs/op, want 0", allocs)
	}
}

// Baseline scheduler micro-benchmarks for context.
func BenchmarkBaselineWF2Q(b *testing.B) {
	h := pfq.New(pfq.WF2Q, 0)
	var ids []int
	for i := 0; i < 256; i++ {
		n, err := h.AddNode(nil, fmt.Sprintf("c%d", i), 1000)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, n.ID())
	}
	now := int64(0)
	for i, id := range ids {
		h.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 800
		h.Enqueue(&pktq.Packet{Len: 1000, Class: ids[i%len(ids)], Seq: uint64(i)}, now)
		if h.Dequeue(now) == nil {
			b.Fatal("idled")
		}
	}
}

func BenchmarkBaselineSCED(b *testing.B) {
	s := sced.New(0)
	var ids []int
	for i := 0; i < 256; i++ {
		ses, err := s.AddSession(fmt.Sprintf("c%d", i), curve.SC{M1: 1_000_000, D: 10_000_000, M2: 500_000})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, ses.ID())
	}
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 800
		s.Enqueue(&pktq.Packet{Len: 1000, Class: ids[i%len(ids)], Seq: uint64(i)}, now)
		if s.Dequeue(now) == nil {
			b.Fatal("idled")
		}
	}
}
