// Command hfsc-bench measures the scheduler's per-packet computation
// overhead — the paper's Section VII measurement experiment ("determine
// the computation overhead") — as enqueue and dequeue cost versus the
// number of classes, for flat and deep hierarchies, for the upper-limit
// worst cases (every sibling deferred) and for the batched DequeueN path.
//
// Absolute numbers reflect this machine; the paper's claim is the shape:
// per-packet cost grows slowly (O(log n)) with the number of classes.
//
// Alongside the text table the command maintains a machine-readable
// BENCH_overhead.json (ns/pkt and allocs/pkt per size and workload) so the
// repository's performance trajectory is tracked over time: the file's
// "baseline" section is preserved across runs while "current" is replaced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/hfscmw"
	"github.com/netsched/hfsc/internal/audit"
	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/curve"
	"github.com/netsched/hfsc/internal/flight"
	"github.com/netsched/hfsc/internal/intake"
	"github.com/netsched/hfsc/internal/metrics"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/stats"
)

// Result is one measured configuration.
type Result struct {
	Name         string  `json:"name"`    // workload, e.g. "flat-rbtree"
	Classes      int     `json:"classes"` // number of leaf classes
	NsPerPkt     float64 `json:"ns_per_pkt"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	// Producers is set on the intake rows: concurrent submitters feeding
	// one consumer (ns_per_pkt is aggregate wall time per packet).
	Producers int `json:"producers,omitempty"`
	// SpreadPct is the min-to-max spread across the best-of-N passes of
	// rows measured that way ((max−min)/min·100) — the noise context a
	// cross-machine or cross-run comparison needs to be honest.
	SpreadPct float64 `json:"spread_pct,omitempty"`
}

// Meta records the environment a snapshot was measured in; comparing
// ns_per_pkt across machines or toolchains without it is meaningless.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Timestamp  string `json:"timestamp"` // UTC, RFC 3339
}

// runMeta captures the current environment.
func runMeta() *Meta {
	return &Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model string where the platform exposes one
// (/proc/cpuinfo on Linux); best-effort, "" elsewhere.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(name) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// Snapshot is one full run of every configuration.
type Snapshot struct {
	Source  string   `json:"source"`
	Meta    *Meta    `json:"meta,omitempty"`
	Results []Result `json:"results"`
}

// File is the on-disk BENCH_overhead.json layout.
type File struct {
	Note     string    `json:"note"`
	Baseline *Snapshot `json:"baseline,omitempty"`
	Current  *Snapshot `json:"current"`
}

func main() {
	var (
		ops       = flag.Int("ops", 200_000, "packets per measurement")
		depth     = flag.Int("depth", 3, "hierarchy depth for the deep variant")
		burst     = flag.Int("burst", 32, "DequeueN burst size")
		jsonPath  = flag.String("json", "BENCH_overhead.json", "perf-tracking JSON file to update (empty to disable)")
		check     = flag.Bool("check", false, "regression gate: re-run the TBL-O1 overhead rows plus the TBL-O4 shard-scaling sweep, fail if ns_per_pkt regresses beyond -tolerance vs the baseline section of -json or if the sweep shows a scaling knee (s8 worse than s1); the measured rows are folded into the file's current section")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional ns_per_pkt regression in -check mode")
		churn     = flag.Bool("churn", false, "measure only the TBL-O6 class-churn rows (admin add/remove latency and mostly-idle steady state); with -check, gate them (absolute admin budget, idle tax vs the 4096-class figure, baseline regression)")
		auditOnly = flag.Bool("audit", false, "measure only the TBL-O8 guarantee-auditor rows (audited hot path vs untraced, verdict-snapshot cost); with -check, gate the median +audit overhead of 5 interleaved untraced/audited pairs at 5% and any frozen audit-* baseline rows")
	)
	flag.Parse()

	if *churn {
		churnMain(*ops, *jsonPath, *check, *tolerance)
		return
	}
	if *auditOnly {
		auditMain(*ops, *jsonPath, *check, *tolerance)
		return
	}

	// multiProducers feeds the multi-shard queue rows (TBL-O3 and the -check gate).
	const multiProducers = 16
	sizes := []int{16, 64, 256, 1024, 4096}
	var results []Result
	record := func(name string, classes int, ns, allocs float64) {
		results = append(results, Result{Name: name, Classes: classes, NsPerPkt: ns, AllocsPerPkt: allocs})
	}
	recordSpread := func(name string, classes int, ns, allocs, spread float64) {
		results = append(results, Result{Name: name, Classes: classes, NsPerPkt: ns,
			AllocsPerPkt: allocs, SpreadPct: spread})
	}

	tbl := &stats.Table{Header: []string{"classes", "flat rbtree", "+metrics", "+flight", "+audit",
		fmt.Sprintf("depth-%d tree", *depth), fmt.Sprintf("batch n=%d", *burst), "deferred", "nextready"}}
	// The flat-rbtree, +metrics and +flight rows feed tight -check gates
	// (15%, 25%-overhead and 5%), so they take the best of three runs —
	// min-of-N is the standard way to keep scheduler noise out of a
	// microbenchmark on a shared box. The min-to-max spread is recorded
	// per row so the tracking file says how noisy the box was.
	best3 := func(build func() *core.Scheduler) (float64, float64, float64) {
		ns, al := measure(build(), *ops)
		min, max := ns, ns
		for i := 0; i < 2; i++ {
			n2, a2 := measure(build(), *ops)
			if n2 < min {
				min, al = n2, a2
			}
			if n2 > max {
				max = n2
			}
		}
		return min, al, 100 * (max - min) / min
	}
	metricsOverhead := map[int][2]float64{} // classes → {untraced, +metrics} ns/pkt
	for _, n := range sizes {
		n := n
		flatRB, aRB, spRB := best3(func() *core.Scheduler { return buildFlat(n) })
		flatMet, aMet, spMet := best3(func() *core.Scheduler { return buildFlat(n, benchAgg()) })
		// "+flight" isolates the flight recorder's own cost on top of the
		// untraced scheduler; the aggregator's cost is the "+metrics"
		// column. -check gates this row at 5% over the frozen untraced
		// baseline.
		flatFlt, aFlt, spFlt := best3(func() *core.Scheduler { return buildFlat(n, flight.New(0)) })
		// "+audit" is the online guarantee auditor riding the same tracer
		// hook: per-event conformance checks, margin sampling and burn
		// accounting. -check gates it at 5% over the untraced baseline.
		flatAud, aAud, spAud := best3(func() *core.Scheduler { return buildFlat(n, benchAud()) })
		deep, aDeep := measure(buildDeep(n, *depth), *ops)
		batch, aBatch := measureBatch(buildFlat(n), *ops, *burst)
		def, aDef := measureDeferred(n, *ops)
		nr, aNR := measureNextReady(n, *ops)
		metricsOverhead[n] = [2]float64{flatRB, flatMet}
		recordSpread("flat-rbtree", n, flatRB, aRB, spRB)
		recordSpread("flat-rbtree-metrics", n, flatMet, aMet, spMet)
		recordSpread("flat-rbtree-flight", n, flatFlt, aFlt, spFlt)
		recordSpread("flat-rbtree-audit", n, flatAud, aAud, spAud)
		record(fmt.Sprintf("deep-%d", *depth), n, deep, aDeep)
		record(fmt.Sprintf("batch-%d", *burst), n, batch, aBatch)
		record("deferred-firstfit", n, def, aDef)
		record("nextready", n, nr, aNR)
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f ns/pkt", flatRB),
			fmt.Sprintf("%.0f ns/pkt", flatMet),
			fmt.Sprintf("%.0f ns/pkt", flatFlt),
			fmt.Sprintf("%.0f ns/pkt", flatAud),
			fmt.Sprintf("%.0f ns/pkt", deep),
			fmt.Sprintf("%.0f ns/pkt", batch),
			fmt.Sprintf("%.0f ns/pkt", def),
			fmt.Sprintf("%.0f ns/op", nr))
	}
	fmt.Println("TBL-O1: per-packet overhead (one enqueue + one dequeue; steady state, packets reused)")
	fmt.Println()
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *check {
		// TBL-O4: pps at saturation versus shard count, 16 producers —
		// the scaling-knee gate. Wall-clock end-to-end numbers are noisier
		// than the tight TBL-O1 loops, so every point takes the best of
		// three; beyond the per-row baseline gate, the sweep's shape itself
		// is asserted: the 8-shard point must not be slower per packet than
		// the 1-shard point, or sharding has become a cost instead of a
		// scaling mechanism.
		rates := shardSweep(multiProducers, *ops, 3)
		mtbl := &stats.Table{Header: []string{"shards", "pkts/s", "ns/pkt", "vs s=1"}}
		nsOf := map[int]float64{}
		for _, shards := range []int{1, 2, 4, 8} {
			ns := 1e9 / rates[shards]
			nsOf[shards] = ns
			record(fmt.Sprintf("multiqueue-s%d", shards), 1024, ns, 0)
			results[len(results)-1].Producers = multiProducers
			mtbl.AddRow(fmt.Sprintf("%d", shards),
				fmt.Sprintf("%.2fM", rates[shards]/1e6),
				fmt.Sprintf("%.0f ns/pkt", ns),
				fmt.Sprintf("%.2fx", rates[shards]/rates[1]))
		}
		fmt.Println()
		fmt.Printf("TBL-O4: pps at saturation vs shards (1024 classes, %d producers, best of 3; GOMAXPROCS=%d)\n",
			multiProducers, runtime.GOMAXPROCS(0))
		fmt.Println()
		if err := mtbl.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		requestRows(*ops, record)
		// TBL-O7 backend matrix plus its two same-run gates: the HLS fast
		// path must hold its ≥2x advantage over the core datapath at scale,
		// and the metrics pipeline must cost ≤25% on the flat hot path.
		beRows := backendRows(*ops, recordSpread)
		if err := checkBackendSpeed(beRows, 2.0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, n := range sizes {
			rb, met := metricsOverhead[n][0], metricsOverhead[n][1]
			if met > rb*1.25 {
				fmt.Fprintf(os.Stderr, "hfsc-bench -check: +metrics overhead %.0f%% at %d classes (%.0f vs %.0f ns/pkt), budget 25%%\n",
					100*(met/rb-1), n, met, rb)
				os.Exit(1)
			}
		}
		if err := checkBaseline(*jsonPath, results, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if nsOf[8] > nsOf[1] {
			// The shape assertion needs actual parallelism: on one CPU
			// eight shards are pure context-switch overhead and s8 > s1
			// is the only possible outcome, so the per-row baseline gate
			// above is all that can be checked.
			if runtime.GOMAXPROCS(0) == 1 {
				fmt.Println("\nnote: GOMAXPROCS=1 — skipping the shard-scaling shape assertion (s8 vs s1 needs parallelism)")
			} else {
				fmt.Fprintf(os.Stderr, "hfsc-bench -check: scaling knee: multiqueue-s8 %.0f ns/pkt > multiqueue-s1 %.0f ns/pkt\n",
					nsOf[8], nsOf[1])
				os.Exit(1)
			}
		}
		if *jsonPath != "" {
			if err := mergeJSON(*jsonPath, results); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("\nbench-check: no ns_per_pkt regression beyond %.0f%% vs baseline; no shard-scaling knee; hls >=2x hfsc; +metrics <=25%%\n", *tolerance*100)
		return
	}

	// TBL-O2: the driver intake under producer contention — the single
	// channel the PacedQueue used to funnel every Submit through, versus
	// the sharded MPSC rings that replaced it.
	itbl := &stats.Table{Header: []string{"producers", "chan pkts/s", "shard pkts/s", "speedup"}}
	intakeOps := *ops * 10 // tens of millions/s: more ops for a stable wall-clock read
	for _, prod := range []int{1, 4, 16} {
		chanRate := measureIntakeChan(prod, intakeOps)
		shardRate := measureIntakeShard(prod, intakeOps)
		record(fmt.Sprintf("intake-chan-p%d", prod), 16, 1e9/chanRate, 0)
		results[len(results)-1].Producers = prod
		record(fmt.Sprintf("intake-shard-p%d", prod), 16, 1e9/shardRate, 0)
		results[len(results)-1].Producers = prod
		itbl.AddRow(fmt.Sprintf("%d", prod),
			fmt.Sprintf("%.2fM", chanRate/1e6),
			fmt.Sprintf("%.2fM", shardRate/1e6),
			fmt.Sprintf("%.2fx", shardRate/chanRate))
	}
	fmt.Println()
	fmt.Println("TBL-O2: intake throughput under producer contention (accepted packets/s, submit -> batch drain)")
	fmt.Println()
	if err := itbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// TBL-O3: end-to-end multi-shard queue throughput versus shard count — the
	// sharded-scheduler scaling experiment. The line rate is set far above
	// what the CPU can push so scheduling work, not pacing, is measured.
	rates := shardSweep(multiProducers, *ops, 1)
	mtbl := &stats.Table{Header: []string{"shards", "pkts/s", "vs s=1"}}
	for _, shards := range []int{1, 2, 4, 8} {
		record(fmt.Sprintf("multiqueue-s%d", shards), 1024, 1e9/rates[shards], 0)
		results[len(results)-1].Producers = multiProducers
		mtbl.AddRow(fmt.Sprintf("%d", shards),
			fmt.Sprintf("%.2fM", rates[shards]/1e6),
			fmt.Sprintf("%.2fx", rates[shards]/rates[1]))
	}
	fmt.Println()
	fmt.Printf("TBL-O3: multi-shard PacedQueue throughput vs shards (1024 classes, %d producers, batch SubmitN, pooled packets; GOMAXPROCS=%d)\n",
		multiProducers, runtime.GOMAXPROCS(0))
	fmt.Println()
	if err := mtbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	requestRows(*ops, record)
	backendRows(*ops, recordSpread)

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}

// writeJSON updates the perf-tracking file: the baseline section survives
// across runs (seeded from the first run if the file never had one), the
// current section is replaced.
func writeJSON(path string, results []Result) error {
	cur := &Snapshot{Source: "cmd/hfsc-bench " + time.Now().UTC().Format("2006-01-02"), Meta: runMeta(), Results: results}
	out := File{
		Note: "Per-packet scheduler overhead; ns_per_pkt is one enqueue+dequeue " +
			"(nextready: one NextReady query). The baseline section is frozen at the " +
			"pre-augmentation hot path; current is refreshed by each cmd/hfsc-bench run.",
		Current: cur,
	}
	if raw, err := os.ReadFile(path); err == nil {
		var old File
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("hfsc-bench: cannot parse existing %s: %w", path, err)
		}
		if old.Note != "" {
			out.Note = old.Note
		}
		out.Baseline = old.Baseline
		if out.Baseline == nil {
			out.Baseline = old.Current
		}
	}
	if out.Baseline == nil {
		out.Baseline = cur
	}
	seedBaseline(out.Baseline, results)
	raw, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// benchAgg builds a metrics aggregator for the traced columns.
func benchAgg() *metrics.Aggregator { return metrics.NewAggregator() }

// benchAud builds a guarantee auditor for the "+audit" column, at the
// same 10 Gb/s link rate buildFlat splits among its leaves.
func benchAud() *audit.Auditor { return audit.New(1_250_000_000) }

// buildFlat creates n leaf classes under the root, each with concave rt
// and linear ls curves. Sinks attach the observability pipeline under test
// (the "+metrics", "+flight" and "+audit" columns) the way hfsc.New does:
// behind one staging core.Batch, which publishes whenever it fills.
func buildFlat(n int, sinks ...core.Sink) *core.Scheduler {
	var opts core.Options
	if len(sinks) > 0 {
		opts.Tracer = core.NewBatch(sinks...)
	}
	s := core.New(opts)
	rate := uint64(1_250_000_000) / uint64(n) // split a 10 Gb/s link
	for i := 0; i < n; i++ {
		_, err := s.AddClass(nil, fmt.Sprintf("c%d", i),
			curve.SC{M1: 2 * rate, D: 10_000_000, M2: rate}, curve.Linear(rate), curve.SC{})
		if err != nil {
			panic(err)
		}
	}
	return s
}

// buildDeep spreads n leaves under a hierarchy of the given depth with
// fan-out chosen to fit.
func buildDeep(n, depth int) *core.Scheduler {
	s := core.New(core.Options{})
	rate := uint64(1_250_000_000)
	parents := []*core.Class{nil}
	for lvl := 0; lvl < depth-1; lvl++ {
		var next []*core.Class
		for i, p := range parents {
			for j := 0; j < 4 && len(next) < n/4+1; j++ {
				cl, err := s.AddClass(p, fmt.Sprintf("i%d.%d.%d", lvl, i, j),
					curve.SC{}, curve.Linear(rate/uint64(len(parents)*4)), curve.SC{})
				if err != nil {
					panic(err)
				}
				next = append(next, cl)
			}
		}
		parents = next
	}
	leafRate := rate / uint64(n)
	for i := 0; i < n; i++ {
		p := parents[i%len(parents)]
		_, err := s.AddClass(p, fmt.Sprintf("leaf%d", i),
			curve.SC{M1: 2 * leafRate, D: 10_000_000, M2: leafRate}, curve.Linear(leafRate), curve.SC{})
		if err != nil {
			panic(err)
		}
	}
	return s
}

// leaves returns the leaf class IDs of s.
func leaves(s *core.Scheduler) []int {
	var ids []int
	for _, c := range s.Classes() {
		if c.IsLeaf() && c != s.Root() {
			ids = append(ids, c.ID())
		}
	}
	return ids
}

// clock runs fn ops times and returns ns/op and allocs/op.
func clock(ops int, fn func(i int)) (float64, float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// measure runs a steady-state enqueue/dequeue loop over all leaves,
// reusing the dequeued packet so the scheduler's own allocation behaviour
// is what is measured.
func measure(s *core.Scheduler, ops int) (nsPerPkt, allocsPerPkt float64) {
	ids := leaves(s)
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	for i := 0; i < 2*len(ids); i++ { // warm free lists and ring buffers
		now += 800
		p := s.Dequeue(now)
		if p == nil {
			panic("scheduler idled during warmup")
		}
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	}
	return clock(ops, func(int) {
		now += 800 // ~1000 B at 10 Gb/s
		p := s.Dequeue(now)
		if p == nil {
			panic("scheduler idled unexpectedly")
		}
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	})
}

// measureBatch is measure with DequeueN draining bursts.
func measureBatch(s *core.Scheduler, ops, burst int) (nsPerPkt, allocsPerPkt float64) {
	ids := leaves(s)
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	out := make([]*pktq.Packet, 0, burst)
	rounds := ops / burst
	ns, allocs := clock(rounds, func(int) {
		now += 800 * int64(burst)
		out = s.DequeueN(now, burst, out[:0])
		if len(out) == 0 {
			panic("scheduler idled unexpectedly")
		}
		for _, p := range out {
			p.Crit, p.Arrival = 0, 0
			s.Enqueue(p, now)
		}
	})
	return ns / float64(burst), allocs / float64(burst)
}

// measureDeferred measures the firstFit worst case: n-1 siblings deferred
// by upper limits, service always landing on the highest-vt leaf.
func measureDeferred(n, ops int) (nsPerPkt, allocsPerPkt float64) {
	s := core.New(core.Options{})
	rate := uint64(1_250_000_000) / uint64(n)
	for i := 0; i < n-1; i++ {
		if _, err := s.AddClass(nil, fmt.Sprintf("capped%d", i),
			curve.SC{}, curve.Linear(rate), curve.Linear(1)); err != nil {
			panic(err)
		}
	}
	open, err := s.AddClass(nil, "open", curve.SC{}, curve.Linear(1), curve.SC{})
	if err != nil {
		panic(err)
	}
	now := int64(0)
	for _, id := range leaves(s) {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id}, now)
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id}, now)
	}
	for i := 0; i < n-1; i++ { // push every capped leaf past its limit
		if p := s.Dequeue(now); p == nil {
			panic("priming dequeue idled")
		}
	}
	return clock(ops, func(int) {
		now += 800
		p := s.Dequeue(now)
		if p == nil || p.Class != open.ID() {
			panic("deferred workload served the wrong class")
		}
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	})
}

// measureIntakeShard measures aggregate intake throughput through the
// sharded MPSC rings: `producers` goroutines each push their share of ops
// packets under their own key (their producer group / class), spinning on
// a full ring, while this goroutine batch-drains — the PacedQueue intake
// shape. Returns accepted packets per second of wall time.
func measureIntakeShard(producers, ops int) float64 {
	q := intake.New(16, 256)
	per := ops / producers
	var wg sync.WaitGroup
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			p := &pktq.Packet{Len: 1000, Class: pr}
			for i := 0; i < per; i++ {
				for !q.Push(pr, p) {
					runtime.Gosched()
				}
			}
		}(pr)
	}
	buf := make([]*pktq.Packet, 0, 256)
	consumed := 0
	for consumed < per*producers {
		buf = q.Drain(buf[:0], 256)
		consumed += len(buf)
		if len(buf) == 0 {
			runtime.Gosched()
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	return float64(consumed) / elapsed.Seconds()
}

// measureIntakeChan is the pre-shard baseline: every producer funnels into
// one 256-slot channel with non-blocking sends (the old PacedQueue.Submit)
// and the consumer receives packet by packet.
func measureIntakeChan(producers, ops int) float64 {
	ch := make(chan *pktq.Packet, 256)
	per := ops / producers
	var wg sync.WaitGroup
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			p := &pktq.Packet{Len: 1000, Class: pr}
			for i := 0; i < per; i++ {
			send:
				for {
					select {
					case ch <- p:
						break send
					default:
						runtime.Gosched()
					}
				}
			}
		}(pr)
	}
	consumed := 0
	for consumed < per*producers {
		select {
		case <-ch:
			consumed++
		default:
			runtime.Gosched()
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	return float64(consumed) / elapsed.Seconds()
}

// measureMulti measures end-to-end multi-shard PacedQueue throughput:
// producers batch-submit pooled packets (SubmitN, 32 per batch), each
// batch a single class's run and successive batches rotating over the
// producer's slice of nclasses top-level classes, while the shard pacing
// goroutines dequeue and Release. Returns transmitted packets per second of wall
// time. The 100 Gb/s line keeps pacing out of the way.
//
// One class per batch is the pattern burst coalescing produces (a NIC
// ring hands over a run of one flow's datagrams, cf. the recvmmsg reader
// in examples/udpshaper) and the pattern SubmitN's prefix batching is
// built for: the whole batch lands on one shard and rings one doorbell.
// Spraying single packets round-robin over classes instead makes every
// batch touch every shard — measuring an unavoidable per-shard wakeup
// tax rather than the shard-edge cost the scaling table tracks.
func measureMulti(shards, producers, nclasses, ops int) float64 {
	var sent atomic.Int64
	m, err := hfsc.NewMultiQueue(hfsc.MultiConfig{
		Config: hfsc.Config{LinkRate: 100 * hfsc.Gbps},
		Shards: shards,
	}, func(p *hfsc.Packet) {
		sent.Add(1)
		p.Release()
	})
	if err != nil {
		panic(err)
	}
	rate := 100 * hfsc.Gbps / uint64(nclasses)
	ids := make([]int, nclasses)
	for i := 0; i < nclasses; i++ {
		id, err := m.AddClass("", fmt.Sprintf("c%d", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(rate)})
		if err != nil {
			panic(err)
		}
		ids[i] = id
	}
	m.Start()
	defer m.Stop()

	const batch = 32
	per := ops / producers
	var wg sync.WaitGroup
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			mine := ids[pr*nclasses/producers : (pr+1)*nclasses/producers]
			ps := make([]*hfsc.Packet, 0, batch)
			for done, round := 0, 0; done < per; round++ {
				cls := mine[round%len(mine)]
				ps = ps[:0]
				for len(ps) < batch && done+len(ps) < per {
					p := hfsc.GetPacket()
					p.Len = 1000
					p.Class = cls
					ps = append(ps, p)
				}
				rest := ps
				for len(rest) > 0 {
					n, r := m.SubmitN(rest)
					done += n
					rest = rest[n:]
					if r == hfsc.DropIntakeFull {
						runtime.Gosched() // full shard ring: retry the refused packet
					}
				}
			}
		}(pr)
	}
	wg.Wait()
	for int(sent.Load()) < per*producers {
		runtime.Gosched()
	}
	elapsed := time.Since(start)
	return float64(per*producers) / elapsed.Seconds()
}

// shardSweep measures the multi-shard saturation sweep: transmitted
// packets per second for 1/2/4/8 scheduler shards under `producers`
// concurrent submitters and 1024 classes, taking the best of `runs`
// passes per point (wall-clock end-to-end numbers are noisy; min-of-N
// per-packet cost = max-of-N throughput).
func shardSweep(producers, ops, runs int) map[int]float64 {
	rates := map[int]float64{}
	for _, shards := range []int{1, 2, 4, 8} {
		best := 0.0
		for i := 0; i < runs; i++ {
			if r := measureMulti(shards, producers, 1024, ops); r > best {
				best = r
			}
		}
		rates[shards] = best
	}
	return rates
}

// mergeJSON folds freshly measured rows into the perf file's current
// section by (name, classes) key, preserving rows the run did not
// re-measure and never touching the frozen baseline. -check uses it so
// the gated TBL-O4 sweep lands in the tracking file without wiping the
// full run's other tables.
func mergeJSON(path string, results []Result) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("hfsc-bench: cannot read %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("hfsc-bench: cannot parse %s: %w", path, err)
	}
	if f.Current == nil {
		f.Current = &Snapshot{}
	}
	idx := map[string]int{}
	for i, r := range f.Current.Results {
		idx[fmt.Sprintf("%s/%d", r.Name, r.Classes)] = i
	}
	for _, r := range results {
		if i, ok := idx[fmt.Sprintf("%s/%d", r.Name, r.Classes)]; ok {
			f.Current.Results[i] = r
		} else {
			f.Current.Results = append(f.Current.Results, r)
		}
	}
	f.Current.Source = "cmd/hfsc-bench " + time.Now().UTC().Format("2006-01-02")
	f.Current.Meta = runMeta()
	seedBaseline(f.Baseline, results)
	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// seedBaseline appends freshly measured rows whose (name, classes) key the
// baseline has never seen — each new workload's first measurement becomes
// its frozen reference, the same per-row freeze the whole file gets on its
// first run — without ever touching rows the baseline already holds.
func seedBaseline(base *Snapshot, results []Result) {
	if base == nil {
		return
	}
	have := map[string]bool{}
	for _, r := range base.Results {
		have[fmt.Sprintf("%s/%d", r.Name, r.Classes)] = true
	}
	for _, r := range results {
		if key := fmt.Sprintf("%s/%d", r.Name, r.Classes); !have[key] {
			have[key] = true
			base.Results = append(base.Results, r)
		}
	}
}

// checkBaseline compares freshly measured TBL-O1 rows against the frozen
// baseline section of the perf-tracking file, failing on any ns_per_pkt
// regression beyond the tolerance fraction. Rows absent from the baseline
// (new workloads) are skipped.
func checkBaseline(path string, results []Result, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("hfsc-bench -check: cannot read %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("hfsc-bench -check: cannot parse %s: %w", path, err)
	}
	if f.Baseline == nil {
		return fmt.Errorf("hfsc-bench -check: %s has no baseline section", path)
	}
	base := map[string]float64{}
	for _, r := range f.Baseline.Results {
		base[fmt.Sprintf("%s/%d", r.Name, r.Classes)] = r.NsPerPkt
	}
	var failures []string
	for _, r := range results {
		key := fmt.Sprintf("%s/%d", r.Name, r.Classes)
		want, ok := base[key]
		tol := tolerance
		if !ok && r.Name == "flat-rbtree-flight" {
			// The flight-recorder column has no frozen row of its own; it is
			// gated against the untraced baseline with a hard 5% budget —
			// the recorder must stay nearly free.
			want, ok = base[fmt.Sprintf("flat-rbtree/%d", r.Classes)]
			tol = 0.05
		}
		if r.Name == "flat-rbtree-audit" {
			// The TBL-O1 auditor column carries the flight recorder's 5%
			// budget over the untraced baseline unconditionally — frozen row
			// or not, so later baseline seeding cannot relax the gate. An
			// auditor that distorts the guarantees it verifies is measuring
			// itself. (TBL-O8's audit-flat rows are budgeted against their
			// same-run untraced twins instead; see auditMain.)
			if w, k := base[fmt.Sprintf("flat-rbtree/%d", r.Classes)]; k {
				want, ok, tol = w, true, 0.05
			}
		}
		if !ok || want <= 0 {
			continue
		}
		if r.NsPerPkt > want*(1+tol) {
			failures = append(failures,
				fmt.Sprintf("  %-28s %.0f ns/pkt vs baseline %.0f (%+.0f%%, tol %.0f%%)",
					key, r.NsPerPkt, want, 100*(r.NsPerPkt/want-1), 100*tol))
		}
	}
	if len(failures) > 0 {
		msg := "hfsc-bench -check: ns_per_pkt regressions beyond tolerance:\n"
		for _, l := range failures {
			msg += l + "\n"
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// measureRequestBare measures the scheduler core in request mode: n
// tenant leaves, cost-denominated items (Cost = estimated service ns)
// and a completion-time Correct on every other item — one admission
// decision plus its reconciliation, without the middleware around it.
func measureRequestBare(n, ops int) (nsPerReq, allocsPerReq float64) {
	s := core.New(core.Options{})
	seat := uint64(time.Second) // 1e9 cost units per second of capacity
	rate := 8 * seat / uint64(n)
	for i := 0; i < n; i++ {
		if _, err := s.AddClass(nil, fmt.Sprintf("t%d", i),
			curve.SC{M1: 2 * rate, D: 10_000_000, M2: rate}, curve.Linear(rate), curve.SC{}); err != nil {
			panic(err)
		}
	}
	const est = int64(25_000_000) // 25 ms of estimated service
	now := int64(0)
	for _, id := range leaves(s) {
		s.Enqueue(&pktq.Packet{Cost: uint64(est), Class: id}, now)
	}
	step := est / 8 // one item's link time on the 8-seat budget
	for i := 0; i < 2*n; i++ {
		now += step
		p := s.Dequeue(now)
		if p == nil {
			panic("request-bare idled during warmup")
		}
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	}
	return clock(ops, func(i int) {
		now += step
		p := s.Dequeue(now)
		if p == nil {
			panic("request-bare idled unexpectedly")
		}
		actual := est + est/5 - int64(i%2)*(2*est/5) // ±20% estimation error
		s.Correct(s.ClassByID(p.Class), est, actual, p.Crit, now)
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	})
}

// measureRequestMW measures the full middleware path — Admit through the
// paced scheduler, Ticket completion with correction — as aggregate wall
// time per admitted request under `producers` concurrent callers spread
// over `tenants` auto-created tenants. The estimate is kept tiny so the
// admission pipeline, not the paced link, is what saturates.
func measureRequestMW(tenants, producers, ops int) float64 {
	l, err := hfscmw.New(hfscmw.Config{
		Concurrency:     producers,
		DefaultEstimate: time.Microsecond,
		MaxPending:      ops,
	})
	if err != nil {
		panic(err)
	}
	defer l.Close()
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	per := ops / producers
	var wg sync.WaitGroup
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < per; i++ {
				tk, err := l.Admit(ctx, names[(pr+i)%tenants], "bench")
				if err != nil {
					panic(err)
				}
				tk.Finish(time.Duration(800 + i%400))
			}
		}(pr)
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(per*producers)
}

// requestRows measures the request-scheduling overhead rows (TBL-O5) and
// folds them into the results: ns per admission decision at the core and
// ns per admitted request through the hfscmw middleware.
func requestRows(ops int, record func(name string, classes int, ns, allocs float64)) {
	const producers = 16
	rtbl := &stats.Table{Header: []string{"tenants", "core ns/req", "middleware ns/req"}}
	for _, n := range []int{16, 256} {
		bare, aBare := measureRequestBare(n, ops)
		mw := measureRequestMW(n, producers, ops)
		record("request-bare", n, bare, aBare)
		record("request-mw", n, mw, 0)
		rtbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f ns/req", bare),
			fmt.Sprintf("%.0f ns/req", mw))
	}
	fmt.Println()
	fmt.Printf("TBL-O5: request-mode overhead (cost-denominated items; core = enqueue+dequeue+correct, middleware = Admit..Finish, %d callers)\n", producers)
	fmt.Println()
	if err := rtbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// measureNextReady measures the retry-time query with every class deferred.
func measureNextReady(n, ops int) (nsPerOp, allocsPerOp float64) {
	s := core.New(core.Options{})
	rate := uint64(1_250_000_000) / uint64(n)
	for i := 0; i < n; i++ {
		if _, err := s.AddClass(nil, fmt.Sprintf("capped%d", i),
			curve.SC{}, curve.Linear(rate), curve.Linear(1)); err != nil {
			panic(err)
		}
	}
	now := int64(0)
	for _, id := range leaves(s) {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id}, now)
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id}, now)
	}
	for i := 0; i < n; i++ {
		if p := s.Dequeue(now); p == nil {
			panic("priming dequeue idled")
		}
	}
	if p := s.Dequeue(now); p != nil {
		panic("expected every class deferred")
	}
	return clock(ops, func(int) {
		if _, ok := s.NextReady(now); !ok {
			panic("no retry time despite backlog")
		}
	})
}
