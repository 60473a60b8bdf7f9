package metrics_test

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/pktq"
)

const mbps = 1_000_000 / 8 * 10 // 10 Mb/s in B/s

func lin(rate uint64) curve.SC { return curve.SC{M2: rate} }

func TestHistogramBuckets(t *testing.T) {
	h := metrics.NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{-5, 10, 11, 100, 500, 5000, 5000} {
		h.Observe(v)
	}
	s := snapshotOf(h)
	want := []uint64{2, 2, 1, 2} // (-inf,10] (10,100] (100,1000] overflow
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d: got %d want %d (all %v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Count != 7 || s.Sum != -5+10+11+100+500+5000+5000 {
		t.Fatalf("count/sum: %d/%d", s.Count, s.Sum)
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Fatalf("median: got %v want 100", q)
	}
	if q := s.Quantile(1); q != 1000 { // overflow reports the last bound
		t.Fatalf("max quantile: got %v want 1000", q)
	}
}

// snapshotOf exercises the exported snapshot path via an Aggregator-free
// histogram by round-tripping through HistogramSnapshot fields.
func snapshotOf(h *metrics.Histogram) metrics.HistogramSnapshot {
	// Histogram has no exported snapshot; feed it through an aggregator by
	// constructing the snapshot manually using Observe-visible state. We
	// re-observe into a fresh aggregator-class instead: simplest is to use
	// the test-only mirror below.
	return metrics.SnapshotHistogram(h)
}

func TestEWMAConvergesAndDecays(t *testing.T) {
	var e metrics.EWMA
	e.SetTau(float64(100 * time.Millisecond))
	// 1000 B every 1 ms → 1e6 B/s steady state.
	now := int64(0)
	for i := 0; i < 2000; i++ {
		now += 1_000_000
		e.Observe(1000, now)
	}
	if r := e.Rate(now); math.Abs(r-1e6) > 1e4 {
		t.Fatalf("steady-state rate %v, want ~1e6", r)
	}
	// After a long idle period the estimate must decay toward zero
	// without any further observation.
	if r := e.Rate(now + int64(time.Second)); r > 1e5 {
		t.Fatalf("idle decay: rate still %v after 10 tau", r)
	}
	// Rate must not mutate: asking twice gives the same answer.
	if a, b := e.Rate(now), e.Rate(now); a != b {
		t.Fatalf("Rate mutated state: %v vs %v", a, b)
	}
}

func buildTraced(t *testing.T, agg *metrics.Aggregator) (*core.Scheduler, *core.Class, *core.Class) {
	t.Helper()
	s := core.New(core.Options{Tracer: agg, DefaultQueueLimit: 4})
	a, err := s.AddClass(nil, "rt-class", lin(mbps), lin(mbps), curve.SC{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddClass(nil, "ls-class", curve.SC{}, lin(mbps), curve.SC{})
	if err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

func TestAggregatorCountsMatchScheduler(t *testing.T) {
	agg := metrics.NewAggregator()
	s, a, b := buildTraced(t, agg)

	now := int64(0)
	for i := 0; i < 500; i++ {
		// Overdrive class a so its 4-packet queue drops.
		for j := 0; j < 3; j++ {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: a.ID()}, now)
		}
		s.Enqueue(&pktq.Packet{Len: 1000, Class: b.ID()}, now)
		s.Dequeue(now)
		s.Dequeue(now)
		now += 2 * 8 * 1000 * int64(time.Second) / (2 * mbps) // ~2 pkt times
	}
	for s.Backlog() > 0 {
		s.Dequeue(now)
		now += 1_000_000
	}

	snap := agg.Snapshot()
	if snap.Now != now-1_000_000 && snap.Now != now {
		// Now tracks the latest event clock; the drain loop's last Dequeue
		// fires events at now-1ms steps.
		t.Logf("snapshot clock %d (final drain at %d)", snap.Now, now)
	}
	for _, cl := range []*core.Class{a, b} {
		cs, ok := snap.Class(cl.ID())
		if !ok {
			t.Fatalf("class %q missing from snapshot", cl.Name())
		}
		if got, want := cs.SentPackets(), cl.SentPackets(); got != want {
			t.Fatalf("%q sent: aggregator %d, scheduler %d", cl.Name(), got, want)
		}
		if got, want := cs.DropsQueueLimit, cl.Dropped(); got != want {
			t.Fatalf("%q drops: aggregator %d, scheduler %d", cl.Name(), got, want)
		}
		if cs.QueuedPackets != 0 || cs.QueuedBytes != 0 {
			t.Fatalf("%q drained but gauges %d pkts / %d bytes", cl.Name(), cs.QueuedPackets, cs.QueuedBytes)
		}
		if cs.EnqueuedPackets != cs.SentPackets() {
			t.Fatalf("%q enqueued %d != sent %d after drain", cl.Name(), cs.EnqueuedPackets, cs.SentPackets())
		}
	}
	csA, _ := snap.Class(a.ID())
	csB, _ := snap.Class(b.ID())
	if csA.DropsQueueLimit == 0 {
		t.Fatal("expected queue-limit drops on the overdriven class")
	}
	if csA.SentPacketsRT == 0 {
		t.Fatal("rt class never dequeued under the real-time criterion")
	}
	if csB.SentPacketsRT != 0 {
		t.Fatal("ls-only class credited with rt service")
	}
	if csA.DeadlineSlack.Count != csA.SentPacketsRT {
		t.Fatalf("slack samples %d != rt dequeues %d", csA.DeadlineSlack.Count, csA.SentPacketsRT)
	}
	if csA.QueueDelay.Count == 0 || csB.QueueDelay.Count == 0 {
		t.Fatal("queue-delay histograms empty")
	}
	if csA.RateBps <= 0 {
		t.Fatal("EWMA rate not positive after sustained service")
	}
}

func TestAggregatorGaugesTrackQueue(t *testing.T) {
	agg := metrics.NewAggregator()
	s, a, _ := buildTraced(t, agg)
	s.Enqueue(&pktq.Packet{Len: 700, Class: a.ID()}, 0)
	s.Enqueue(&pktq.Packet{Len: 300, Class: a.ID()}, 0)
	cs, ok := agg.ClassSnapshot(a.ID())
	if !ok {
		t.Fatal("no class state")
	}
	if cs.QueuedPackets != 2 || cs.QueuedBytes != 1000 {
		t.Fatalf("gauges %d/%d want 2/1000", cs.QueuedPackets, cs.QueuedBytes)
	}
	s.Dequeue(0)
	cs, _ = agg.ClassSnapshot(a.ID())
	if cs.QueuedPackets != 1 || cs.QueuedBytes != 300 {
		t.Fatalf("gauges after dequeue %d/%d want 1/300", cs.QueuedPackets, cs.QueuedBytes)
	}
	if cs.Activations == 0 {
		t.Fatal("activation not counted")
	}
}

func TestCountDrop(t *testing.T) {
	agg := metrics.NewAggregator()
	agg.CountDrop(core.DropUnknownClass, 5)
	agg.CountDrop(core.DropUnknownClass, 6)
	agg.CountDrop(core.DropBadPacket, 7)
	snap := agg.Snapshot()
	if snap.DropsUnknownClass != 2 || snap.DropsBadPacket != 1 {
		t.Fatalf("admission drops %d/%d want 2/1", snap.DropsUnknownClass, snap.DropsBadPacket)
	}
	if snap.Now != 7 {
		t.Fatalf("snapshot clock %d want 7", snap.Now)
	}
}

func TestRecordIntake(t *testing.T) {
	agg := metrics.NewAggregator()
	agg.RecordIntake(10, 2, 5)
	snap := agg.Snapshot()
	if snap.DropsIntakeFull != 10 || snap.DropsStopped != 2 {
		t.Fatalf("intake drops %d/%d want 10/2", snap.DropsIntakeFull, snap.DropsStopped)
	}
	// Totals are monotonic: a stale republish must not move them backwards.
	agg.RecordIntake(7, 1, 6)
	agg.RecordIntake(12, 2, 7)
	snap = agg.Snapshot()
	if snap.DropsIntakeFull != 12 || snap.DropsStopped != 2 {
		t.Fatalf("intake drops %d/%d want 12/2", snap.DropsIntakeFull, snap.DropsStopped)
	}
	if snap.Now != 7 {
		t.Fatalf("snapshot clock %d want 7", snap.Now)
	}
}

func TestCountDropIntakeReasons(t *testing.T) {
	agg := metrics.NewAggregator()
	agg.CountDrop(core.DropIntakeFull, 1)
	agg.CountDrop(core.DropIntakeFull, 2)
	agg.CountDrop(core.DropStopped, 3)
	snap := agg.Snapshot()
	if snap.DropsIntakeFull != 2 || snap.DropsStopped != 1 {
		t.Fatalf("intake drops %d/%d want 2/1", snap.DropsIntakeFull, snap.DropsStopped)
	}
	if snap.DropsUnknownClass != 0 {
		t.Fatalf("intake reasons leaked into unknown-class: %d", snap.DropsUnknownClass)
	}
}

func TestUlimitDeferCounted(t *testing.T) {
	agg := metrics.NewAggregator()
	s := core.New(core.Options{Tracer: agg})
	// Leaf with a low upper limit: after one packet it is rate-limited.
	ul, err := s.AddClass(nil, "capped", curve.SC{}, lin(mbps), lin(mbps/100))
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for i := 0; i < 10; i++ {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: ul.ID()}, now)
	}
	sent := 0
	for i := 0; i < 50 && s.Backlog() > 0; i++ {
		if s.Dequeue(now) != nil {
			sent++
		}
		now += 1000 // far less than the packet time at mbps/100
	}
	snap := agg.Snapshot()
	if snap.UlimitDefers == 0 {
		t.Fatalf("no upper-limit deferrals recorded (sent %d)", sent)
	}
}

func TestTraceSteadyStateZeroAllocs(t *testing.T) {
	agg := metrics.NewAggregator()
	s, a, b := buildTraced(t, agg)
	now := int64(0)
	pa := &pktq.Packet{Len: 1000, Class: a.ID()}
	pb := &pktq.Packet{Len: 1000, Class: b.ID()}
	step := func() {
		s.Enqueue(pa, now)
		s.Enqueue(pb, now)
		s.Dequeue(now)
		s.Dequeue(now)
		now += 2_000_000
	}
	for i := 0; i < 2000; i++ { // warm up the class table and histograms
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("traced steady state allocates %v allocs/op", avg)
	}
}

// TestSinksHeapFlatUnderBacklog queues 100k packets in one real-time
// class with the aggregator and the auditor behind a core.Batch. Neither
// sink may keep per-packet state: the live heap with the sinks attached,
// minus the live heap of the same run without them, stays under 64 KiB
// (one 8-byte stamp per queued packet would be 800 kB per sink).
func TestSinksHeapFlatUnderBacklog(t *testing.T) {
	const n = 100_000
	run := func(sinks bool) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var tr core.Tracer
		var b *core.Batch
		if sinks {
			b = core.NewBatch(metrics.NewAggregator(), audit.New(mbps))
			tr = b
		}
		s := core.New(core.Options{Tracer: tr})
		cl, err := s.AddClass(nil, "rt", curve.Linear(mbps), curve.Linear(mbps), curve.SC{})
		if err != nil {
			t.Fatal(err)
		}
		pkts := make([]pktq.Packet, n)
		for i := range pkts {
			pkts[i] = pktq.Packet{Len: 100, Class: cl.ID()}
			s.Enqueue(&pkts[i], int64(i)*1000)
		}
		if b != nil {
			b.Publish()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		runtime.KeepAlive(b)
		runtime.KeepAlive(pkts)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	run(false) // settle one-time runtime and package state
	bare := run(false)
	traced := run(true)
	d := traced - bare
	t.Logf("sinks' heap under a %d-packet backlog: %d B", n, d)
	if d >= 64<<10 {
		t.Fatalf("sinks hold %d B for a %d-packet backlog (heap %d B traced, %d B bare), want < 64 KiB", d, n, traced, bare)
	}
}

// --- Prometheus exposition validation ---------------------------------

// promValidate is a strict-enough parser for the text exposition format:
// every sample line must parse, belong to a declared family, match the
// declared type's naming rules, and histogram buckets must be cumulative
// and end with le="+Inf" equal to _count.
func promValidate(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	type histKey struct{ name, labels string }
	lastCum := map[histKey]uint64{}
	lastLe := map[histKey]float64{}
	sawInf := map[histKey]bool{}

	sc := bufio.NewScanner(strings.NewReader(text))
	var curFamily string
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			curFamily = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if parts[0] != curFamily {
				t.Fatalf("TYPE for %q does not follow its HELP (current family %q)", parts[0], curFamily)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q", parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name[{labels}] value
		name := line
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced braces: %q", line)
			}
			name = line[:i]
			labels = line[i+1 : j]
			line = name + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", sc.Text())
		}
		name = fields[0]
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", sc.Text(), err)
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		typ, ok := types[base]
		if !ok {
			t.Fatalf("sample %q has no TYPE declaration", name)
		}
		if typ == "counter" && v < 0 {
			t.Fatalf("negative counter %q = %v", name, v)
		}
		if typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			var le string
			var rest []string
			for _, l := range strings.Split(labels, ",") {
				if strings.HasPrefix(l, "le=") {
					le = strings.Trim(l[3:], `"`)
				} else {
					rest = append(rest, l)
				}
			}
			k := histKey{base, strings.Join(rest, ",")}
			cum := uint64(v)
			if cum < lastCum[k] {
				t.Fatalf("histogram %v buckets not cumulative at le=%q", k, le)
			}
			if sawInf[k] {
				t.Fatalf("histogram %v has buckets after le=+Inf", k)
			}
			if le == "+Inf" {
				sawInf[k] = true
			} else {
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le bound %q: %v", le, err)
				}
				if prev, ok := lastLe[k]; ok && bound <= prev {
					t.Fatalf("histogram %v le bounds not increasing: %v after %v", k, bound, prev)
				}
				lastLe[k] = bound
			}
			lastCum[k] = cum
		}
		samples[name+"{"+labels+"}"] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Every histogram series must have ended with +Inf and match _count.
	for k := range lastCum {
		if !sawInf[k] {
			t.Fatalf("histogram %v missing le=+Inf bucket", k)
		}
		countKey := k.name + "_count{" + k.labels + "}"
		if c, ok := samples[countKey]; !ok || uint64(c) != lastCum[k] {
			t.Fatalf("histogram %v: +Inf bucket %d != _count %v", k, lastCum[k], samples[countKey])
		}
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	agg := metrics.NewAggregator()
	s, a, b := buildTraced(t, agg)
	now := int64(0)
	for i := 0; i < 200; i++ {
		for j := 0; j < 3; j++ {
			s.Enqueue(&pktq.Packet{Len: 1000, Class: a.ID()}, now)
		}
		s.Enqueue(&pktq.Packet{Len: 1000, Class: b.ID()}, now)
		s.Dequeue(now)
		s.Dequeue(now)
		now += 2_000_000
	}
	agg.CountDrop(core.DropUnknownClass, now)
	agg.RecordIntake(5, 1, now)

	var buf strings.Builder
	if err := metrics.WritePrometheus(&buf, agg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples := promValidate(t, buf.String())

	for _, want := range []string{
		`hfsc_sent_packets_total{class="rt-class",crit="rt"}`,
		`hfsc_sent_packets_total{class="ls-class",crit="ls"}`,
		`hfsc_drops_total{class="rt-class",reason="queue_limit"}`,
		`hfsc_enqueue_rejects_total{reason="unknown_class"}`,
		`hfsc_enqueue_rejects_total{reason="intake_full"}`,
		`hfsc_enqueue_rejects_total{reason="stopped"}`,
		`hfsc_service_rate_bytes_per_second{class="rt-class",crit="all"}`,
		`hfsc_queue_packets{class="rt-class"}`,
		`hfsc_ulimit_defers_total{}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("missing sample %s\n---\n%s", want, buf.String())
		}
	}
	if samples[`hfsc_drops_total{class="rt-class",reason="queue_limit"}`] == 0 {
		t.Fatal("queue-limit drops should be nonzero")
	}
	if samples[`hfsc_enqueue_rejects_total{reason="unknown_class"}`] != 1 {
		t.Fatal("unknown-class reject not exported")
	}
	if samples[`hfsc_deadline_slack_seconds_count{class="rt-class"}`] == 0 {
		t.Fatal("deadline-slack histogram empty for the rt class")
	}
	_ = a
	_ = b
}

func TestPromLabelEscaping(t *testing.T) {
	agg := metrics.NewAggregator()
	s := core.New(core.Options{Tracer: agg, DefaultQueueLimit: 8})
	weird, err := s.AddClass(nil, `we"ird\name`, lin(mbps), lin(mbps), curve.SC{})
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(&pktq.Packet{Len: 100, Class: weird.ID()}, 0)
	s.Dequeue(0)
	var buf strings.Builder
	if err := metrics.WritePrometheus(&buf, agg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("class=%q", `we"ird\name`)
	// Go's %q escaping of " and \ matches the exposition format's rules.
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label %s not found in output", want)
	}
	promValidate(t, buf.String())
}

// TestHistogramIndexingMatchesBinarySearch cross-checks the precomputed
// bit-length bucket indexing against a reference binary search over the
// shipped bucket sets, random bounds and adversarial values (bound edges,
// negatives, extremes).
func TestHistogramIndexingMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	boundSets := [][]int64{
		metrics.DelayBuckets,
		metrics.SlackBuckets,
		{0},
		{-100, -10, 0, 10, 100},
	}
	for i := 0; i < 20; i++ { // random ascending bound sets
		n := 1 + rng.Intn(30)
		set := make([]int64, 0, n)
		v := int64(-1_000_000)
		for len(set) < n {
			v += 1 + rng.Int63n(1_000_000_000)
			set = append(set, v)
		}
		boundSets = append(boundSets, set)
	}
	ref := func(bounds []int64, v int64) int {
		lo, hi := 0, len(bounds)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if v <= bounds[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	for si, bounds := range boundSets {
		vals := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
		for _, b := range bounds {
			vals = append(vals, b-1, b, b+1)
		}
		for i := 0; i < 2000; i++ {
			vals = append(vals, rng.Int63n(2_000_000_000_000)-1_000_000_000)
		}
		h := metrics.NewHistogram(bounds)
		want := make([]uint64, len(bounds)+1)
		for _, v := range vals {
			h.Observe(v)
			want[ref(bounds, v)]++
		}
		got := metrics.SnapshotHistogram(h).Counts
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("set %d bucket %d: got %d want %d", si, b, got[b], want[b])
			}
		}
	}
}
