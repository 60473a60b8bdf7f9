// TBL-O8: guarantee-auditor overhead — the observability benchmark for
// the online conformance checker. Two costs matter: the per-packet tax
// the auditor's tracer hook puts on the hot path (every enqueue anchors
// a busy period and pushes a fluid deadline; every dequeue pops it and
// samples the margin), and the cost of materializing a verdict snapshot
// while the datapath keeps running. Both are measured here; with -check
// the hot path is held to a 5% budget over an untraced twin measured in
// the same run, read as the median of interleaved pairs, and any frozen
// audit-* rows get the usual fractional regression gate — an auditor
// that distorts the guarantees it verifies is measuring itself.
package main

import (
	"fmt"
	"os"
	"slices"

	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/stats"
)

// auditPairs is how many interleaved untraced/audited pairs each TBL-O8
// size is measured over. One pair's ratio swings by tens of percent on a
// shared host; the median of five is what the overhead column reports
// and the +audit budget reads.
const auditPairs = 5

// auditMain measures and (with check) gates the TBL-O8 rows, then merges
// them into the perf-tracking JSON under the audit-* names.
func auditMain(ops int, jsonPath string, check bool, tolerance float64) {
	sizes := []int{16, 64, 256, 1024, 4096}
	var results []Result
	tbl := &stats.Table{Header: []string{"classes", "untraced", "+audit", "overhead [min, max]", "snapshot"}}
	overhead := map[int]float64{}
	for _, n := range sizes {
		var base, aud, ratio []float64
		var allocs float64
		for i := 0; i < auditPairs; i++ {
			// Alternate which half of the pair runs first, so a drift in
			// the host's speed does not land on one side.
			var b, a, al float64
			if i%2 == 0 {
				b, _ = measure(buildFlat(n), ops)
				a, al = measure(buildFlat(n, benchAud()), ops)
			} else {
				a, al = measure(buildFlat(n, benchAud()), ops)
				b, _ = measure(buildFlat(n), ops)
			}
			base, aud, ratio = append(base, b), append(aud, a), append(ratio, 100*(a/b-1))
			allocs = max(allocs, al)
		}
		snapNs := measureAuditSnapshot(n, ops)
		overhead[n] = median(ratio) // sorts ratio: its ends are the min and max
		results = append(results,
			Result{Name: "audit-flat", Classes: n, NsPerPkt: median(aud), AllocsPerPkt: allocs, SpreadPct: spreadPct(aud)},
			Result{Name: "audit-snapshot", Classes: n, NsPerPkt: snapNs})
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f ns/pkt", median(base)),
			fmt.Sprintf("%.0f ns/pkt", median(aud)),
			fmt.Sprintf("%+.1f%% [%+.1f, %+.1f]", overhead[n], ratio[0], ratio[len(ratio)-1]),
			fmt.Sprintf("%.0f ns/op", snapNs))
	}
	fmt.Printf("TBL-O8: guarantee-auditor overhead (enqueue+dequeue with the auditor on the tracer hook, median of %d interleaved untraced/audited pairs; snapshot = one verdict materialization)\n", auditPairs)
	fmt.Println()
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if check && jsonPath != "" {
		// The +audit budget is the median same-run overhead; frozen
		// audit-* rows get the usual fractional regression gate. Both are
		// reported before either fails the run.
		worst, at := 0.0, 0
		for _, n := range sizes {
			if overhead[n] > worst {
				worst, at = overhead[n], n
			}
		}
		failed := worst > auditBudgetPct
		if failed {
			fmt.Fprintf(os.Stderr, "bench-audit: +audit median overhead %.1f%% at %d classes exceeds the %.0f%% budget\n", worst, at, auditBudgetPct)
		} else {
			fmt.Printf("\nbench-audit: +audit within the %.0f%% budget (worst median overhead %.1f%%)\n", auditBudgetPct, worst)
		}
		if err := checkBaseline(jsonPath, results, tolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
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
		fmt.Printf("\nmerged TBL-O8 rows into %s\n", jsonPath)
	}
}

// auditBudgetPct is the +audit hot-path budget: the auditor may add at
// most this much to the untraced per-packet cost.
const auditBudgetPct = 5.0

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spreadPct is the min-to-max spread of xs as a percentage of the min.
func spreadPct(xs []float64) float64 {
	lo, hi := slices.Min(xs), slices.Max(xs)
	return 100 * (hi - lo) / lo
}

// measureAuditSnapshot times Auditor.Snapshot with n classes' worth of
// state resident: the datapath is driven long enough for every class to
// hold anchors, margins and burn slots, then the snapshot alone is
// clocked. Snapshot copies per-class state, so this is O(n) by design;
// the row tracks the constant.
func measureAuditSnapshot(n, ops int) float64 {
	aud := benchAud()
	s := buildFlat(n, aud)
	ids := leaves(s)
	now := int64(0)
	for i, id := range ids {
		s.Enqueue(&pktq.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	for i := 0; i < 4*len(ids); i++ {
		now += 800
		p := s.Dequeue(now)
		if p == nil {
			panic("scheduler idled during audit-snapshot warmup")
		}
		p.Crit, p.Arrival = 0, 0
		s.Enqueue(p, now)
	}
	rounds := ops / (n/4 + 1)
	if rounds < 8 {
		rounds = 8
	}
	ns, _ := clock(rounds, func(int) {
		if snap := aud.Snapshot(); snap == nil {
			panic("nil audit snapshot")
		}
	})
	return ns
}
