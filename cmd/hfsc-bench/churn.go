// TBL-O6: class-churn overhead — the dynamic-lifecycle benchmark. Two
// costs matter for tenant churn at scale: the admin-path latency of
// adding and removing one leaf while many others exist, and any tax the
// mostly-idle resident classes put on the packet hot path. Both are
// measured here and gated by -check: add/remove must stay under an
// absolute per-op budget at 100k resident classes, the steady-state
// ns/pkt with 100k mostly-idle classes must stay within 10% of the
// 4096-class all-active figure, and rows with a frozen baseline get the
// usual fractional regression gate. Each resident size also reports the
// heap the resident classes hold per class (not gated).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/stats"
)

// churnAbsBudgetNs is the absolute admin-path budget: one AddClass or one
// RemoveClass at 100k resident classes must stay under 10µs.
const churnAbsBudgetNs = 10_000

// churnIdleTolerance gates the mostly-idle steady state: ns/pkt with 100k
// resident (64 active) classes may exceed the 4096-class all-active
// figure by at most this fraction.
const churnIdleTolerance = 0.10

// residentScheduler builds a scheduler holding `resident` real-time
// leaves, and returns it with the class configuration they share.
func residentScheduler(resident int) (*hfsc.Scheduler, hfsc.ClassConfig) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Gbps})
	rate := 10 * hfsc.Gbps / uint64(resident+1)
	if rate == 0 {
		rate = 1
	}
	cfg := hfsc.ClassConfig{
		RealTime:  hfsc.Curve(2*rate, 10*time.Millisecond, rate),
		LinkShare: hfsc.Linear(rate),
	}
	for i := 0; i < resident; i++ {
		if _, err := s.AddClass(nil, fmt.Sprintf("r%d", i), cfg); err != nil {
			panic(err)
		}
	}
	return s, cfg
}

// measureChurn times AddClass and RemoveClass through the public admin
// API with `resident` other classes already in place — name registries,
// arena recycling and curve setup included, the path a tenant-churning
// control plane actually pays.
func measureChurn(resident, ops int) (addNs, removeNs float64) {
	s, cfg := residentScheduler(resident)
	const batch = 1024
	names := make([]string, batch)
	for j := range names {
		names[j] = fmt.Sprintf("churn%d", j)
	}
	cls := make([]*hfsc.Class, batch)
	var addT, remT time.Duration
	for done := 0; done < ops; {
		b := batch
		if ops-done < b {
			b = ops - done
		}
		t0 := time.Now()
		for j := 0; j < b; j++ {
			cl, err := s.AddClass(nil, names[j], cfg)
			if err != nil {
				panic(err)
			}
			cls[j] = cl
		}
		addT += time.Since(t0)
		t0 = time.Now()
		for j := 0; j < b; j++ {
			if err := s.RemoveClass(cls[j]); err != nil {
				panic(err)
			}
		}
		remT += time.Since(t0)
		done += b
	}
	return float64(addT.Nanoseconds()) / float64(ops), float64(remT.Nanoseconds()) / float64(ops)
}

// measureResidentHeap returns the live heap, per class, that a scheduler
// holding `resident` classes keeps after a GC.
func measureResidentHeap(resident int) float64 {
	base := liveHeap()
	s, _ := residentScheduler(resident)
	held := liveHeap() - base
	runtime.KeepAlive(s)
	return float64(held) / float64(resident)
}

// liveHeap returns the bytes in live heap objects after a full GC.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// measureSteadyIdle is the hot-path tax probe: `total` resident leaves of
// which only `active` carry traffic, in the same enqueue+dequeue loop as
// TBL-O1's measure. Idle classes live outside the eligible and vt
// structures, so this should track the active count, not the resident
// count — the number that makes 100k auto-created tenants affordable.
func measureSteadyIdle(total, active, ops int) (nsPerPkt, allocsPerPkt float64) {
	s := buildFlat(total)
	ids := leaves(s)[:active]
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
		now += 800
		p := s.Dequeue(now)
		if p == nil {
			panic("scheduler idled unexpectedly")
		}
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	})
}

// seedBaselineRows appends rows to the perf file's baseline section when
// it has no entry under their (name, classes) key yet — new workloads
// start a frozen reference without touching existing baseline rows.
func seedBaselineRows(path string, results []Result) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("hfsc-bench: cannot read %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("hfsc-bench: cannot parse %s: %w", path, err)
	}
	if f.Baseline == nil {
		return nil // writeJSON seeds a full baseline on the first run
	}
	have := map[string]bool{}
	for _, r := range f.Baseline.Results {
		have[fmt.Sprintf("%s/%d", r.Name, r.Classes)] = true
	}
	added := false
	for _, r := range results {
		if !have[fmt.Sprintf("%s/%d", r.Name, r.Classes)] {
			f.Baseline.Results = append(f.Baseline.Results, r)
			added = true
		}
	}
	if !added {
		return nil
	}
	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// churnMain runs the TBL-O6 churn rows, applies the gates in check mode,
// and folds the rows into the perf-tracking file.
func churnMain(ops int, jsonPath string, check bool, tolerance float64) {
	churnOps := ops / 10
	if churnOps < 5_000 {
		churnOps = 5_000
	}
	const (
		bigResident = 100_000
		activeSet   = 64
	)
	var results []Result
	record := func(name string, classes int, ns, allocs float64) {
		results = append(results, Result{Name: name, Classes: classes, NsPerPkt: ns, AllocsPerPkt: allocs})
	}

	tbl := &stats.Table{Header: []string{"resident classes", "add", "remove", fmt.Sprintf("steady (%d active)", activeSet), "resident heap"}}
	var add100k, rem100k, steady100k float64
	sizes := []int{4096, bigResident}
	var rows [][]string
	for _, n := range sizes {
		// Best of 3, like every other gated row: single-run admin-path
		// timings swing with GC phase far beyond the gate tolerance.
		addNs, remNs := measureChurn(n, churnOps)
		steadyNs, steadyAl := measureSteadyIdle(n, activeSet, ops)
		for i := 0; i < 2; i++ {
			a2, r2 := measureChurn(n, churnOps)
			if a2 < addNs {
				addNs = a2
			}
			if r2 < remNs {
				remNs = r2
			}
			if s2, al2 := measureSteadyIdle(n, activeSet, ops); s2 < steadyNs {
				steadyNs, steadyAl = s2, al2
			}
		}
		record("churn-add", n, addNs, 0)
		record("churn-remove", n, remNs, 0)
		record("steady-idle", n, steadyNs, steadyAl)
		if n == bigResident {
			add100k, rem100k, steady100k = addNs, remNs, steadyNs
		}
		rows = append(rows, []string{fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f ns/op", addNs),
			fmt.Sprintf("%.0f ns/op", remNs),
			fmt.Sprintf("%.0f ns/pkt", steadyNs)})
	}
	// The heap column is measured once per size after every timed pass,
	// so its forced GCs never precede one.
	for i, n := range sizes {
		tbl.AddRow(append(rows[i], fmt.Sprintf("%.0f B/class", measureResidentHeap(n)))...)
	}
	fmt.Printf("TBL-O6: class-churn overhead (add/remove one leaf via the admin API; steady state drives %d of the resident classes)\n\n", activeSet)
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if check {
		// Absolute admin-path budget at 100k classes.
		if add100k > churnAbsBudgetNs || rem100k > churnAbsBudgetNs {
			fmt.Fprintf(os.Stderr, "hfsc-bench -churn -check: admin path over budget at %d classes: add %.0f ns, remove %.0f ns (budget %d ns)\n",
				bigResident, add100k, rem100k, churnAbsBudgetNs)
			os.Exit(1)
		}
		// Mostly-idle steady state versus the all-active 4096 figure,
		// measured fresh (best of 3) so the gate compares like with like.
		ref, _ := measure(buildFlat(4096), ops)
		for i := 0; i < 2; i++ {
			if n2, _ := measure(buildFlat(4096), ops); n2 < ref {
				ref = n2
			}
		}
		if steady100k > ref*(1+churnIdleTolerance) {
			fmt.Fprintf(os.Stderr, "hfsc-bench -churn -check: %dk-idle steady state %.0f ns/pkt exceeds the 4096-class figure %.0f by more than %.0f%%\n",
				bigResident/1000, steady100k, ref, churnIdleTolerance*100)
			os.Exit(1)
		}
		// Fractional regression gate against any frozen churn baseline.
		if jsonPath != "" {
			if err := checkBaseline(jsonPath, results, tolerance); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("\nbench-churn: add %.0f ns, remove %.0f ns at %d classes (budget %d ns); steady %.0f ns/pkt vs 4096-class %.0f (tol %.0f%%)\n",
			add100k, rem100k, bigResident, churnAbsBudgetNs, steady100k, ref, churnIdleTolerance*100)
	}
	if jsonPath != "" {
		if err := mergeJSON(jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := seedBaselineRows(jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nmerged TBL-O6 rows into %s\n", jsonPath)
	}
}
