// Command perfbench is the repository's end-to-end benchmark. It drives
// the three public surfaces — hfsc.Scheduler on a virtual clock
// (replay-4k), hfsc.PacedQueue with every telemetry layer on (shaper-64b)
// and hfscmw.Limiter under tenant churn (mw-churn) — from seeded inputs,
// checks what comes out, and prints one JSON result line. From the
// repository root, run.py builds and runs it:
//
//	python3 perfbench/run.py --workload replay-4k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// span recording off; with --trace 1 it carries the per-layer metrics from
// rounds that record a span around every call into the system. An
// environment block (CPU, Go version, GOMAXPROCS, commit, seed, host
// steal) is printed on the line before the result. BENCHMARK.json lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// workload runs one workload for about seconds of measurement and returns
// its counters, checks and metrics.
type workload func(o opts) (*result, error)

var workloads = map[string]workload{
	"replay-4k":  runReplay,
	"shaper-64b": runShaper,
	"mw-churn":   runChurn,
}

// opts are the run parameters every workload receives.
type opts struct {
	seed     uint64
	seconds  int
	trace    bool
	spansDir string // where traced runs write their spans; "" keeps them in memory only
	label    string // file-name stem for the written spans
}

func main() {
	name := flag.String("workload", "", "workload to run: replay-4k, shaper-64b or mw-churn")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measurement length in seconds (sets the fixed amount of work)")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded in the environment block")
	spansDir := flag.String("spans-dir", ".bench_build/spans", "directory traced runs write their spans to (empty: do not write)")
	flag.Parse()

	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with GOMAXPROCS=%d above nproc=%d: the figures would measure oversubscription\n", procs, cpus)
		os.Exit(2)
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want replay-4k, shaper-64b or mw-churn)\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir,
		label: fmt.Sprintf("%s-seed%d", *name, *seed)}
	steal0 := readStealMs()
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	stealMs := readStealMs() - steal0
	if o.trace {
		res.add("bench.steal_ms", "ms", stealMs)
	}
	res.check()

	env := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     *commit,
		"steal_ms":   stealMs,
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Println(res.json())
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// result is one run's outcome: the conservation counters, the failed
// output checks, and the metrics in the order they are reported.
type result struct {
	attempted int64 // items offered to the system
	delivered int64 // items that came out (departed, transmitted, admitted)
	refused   int64 // items the system refused at its entry point
	failures  []string
	metrics   []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check applies the checks every workload shares: conservation (attempted
// = delivered + refused) and finite metric values. Workload-specific
// checks (FIFO, delay bounds, ledger) have already recorded failures.
func (r *result) check() {
	if r.attempted < 1 {
		r.failf("no items attempted")
	}
	if r.attempted != r.delivered+r.refused {
		r.failf("conservation: attempted %d != delivered %d + refused %d", r.attempted, r.delivered, r.refused)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.failf("metric %s is %v", m.name, m.value)
		}
	}
}

// json renders the result line. Keys keep the workload's order; values
// keep every digit the float64 holds.
func (r *result) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		len(r.failures) == 0, r.attempted, r.refused)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // already a failed check; keep the line parseable
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// cpuModel reads the CPU model string from /proc/cpuinfo; "" elsewhere.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// readStealMs returns the host's cumulative steal time in ms, summed over
// CPUs, from the aggregate line of /proc/stat (0 where unavailable).
func readStealMs() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 10 // USER_HZ is 100 on Linux
}

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// jain is Jain's fairness index (Σx)² / (n·Σx²): 1 when every x is equal.
func jain(xs []float64) float64 {
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 1
	}
	return s * s / (float64(len(xs)) * s2)
}
