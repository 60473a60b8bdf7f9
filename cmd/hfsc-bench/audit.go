// TBL-O8: guarantee-auditor overhead — the observability benchmark for
// the online conformance checker. Two costs matter: the per-packet tax
// the auditor's tracer hook puts on the hot path (every enqueue anchors
// a busy period and pushes a fluid deadline; every dequeue pops it and
// samples the margin), and the cost of materializing a verdict snapshot
// while the datapath keeps running. Both are measured here; with -check
// the hot-path row is held to the same 5% budget over the frozen
// untraced baseline that the flight recorder's column carries (see
// checkBaseline), and any frozen audit-* rows get the usual fractional
// regression gate — an auditor that distorts the guarantees it verifies
// is measuring itself.
package main

import (
	"fmt"
	"os"

	"github.com/netsched/hfsc/internal/core"
	"github.com/netsched/hfsc/internal/pktq"
	"github.com/netsched/hfsc/internal/stats"
)

// auditMain measures and (with check) gates the TBL-O8 rows, then merges
// them into the perf-tracking JSON under the audit-* names.
func auditMain(ops int, jsonPath string, check bool, tolerance float64) {
	sizes := []int{16, 64, 256, 1024, 4096}
	var results []Result
	recordSpread := func(name string, classes int, ns, allocs, spread float64) {
		results = append(results, Result{Name: name, Classes: classes, NsPerPkt: ns,
			AllocsPerPkt: allocs, SpreadPct: spread})
	}
	best3 := func(build func() *core.Scheduler) (float64, float64, float64) {
		ns, al := measure(build(), ops)
		min, max := ns, ns
		for i := 0; i < 2; i++ {
			n2, a2 := measure(build(), ops)
			if n2 < min {
				min, al = n2, a2
			}
			if n2 > max {
				max = n2
			}
		}
		return min, al, 100 * (max - min) / min
	}

	tbl := &stats.Table{Header: []string{"classes", "untraced", "+audit", "overhead", "snapshot"}}
	type sized struct{ base, aud float64 }
	overhead := map[int]sized{}
	for _, n := range sizes {
		n := n
		base, _, _ := best3(func() *core.Scheduler { return buildFlat(n) })
		aud, aAud, spAud := best3(func() *core.Scheduler { return buildFlat(n, benchAud()) })
		snapNs := measureAuditSnapshot(n, ops)
		overhead[n] = sized{base, aud}
		recordSpread("audit-flat", n, aud, aAud, spAud)
		recordSpread("audit-snapshot", n, snapNs, 0, 0)
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f ns/pkt", base),
			fmt.Sprintf("%.0f ns/pkt", aud),
			fmt.Sprintf("%+.1f%%", 100*(aud/base-1)),
			fmt.Sprintf("%.0f ns/op", snapNs))
	}
	fmt.Println("TBL-O8: guarantee-auditor overhead (enqueue+dequeue with the auditor on the tracer hook; snapshot = one verdict materialization)")
	fmt.Println()
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if check && jsonPath != "" {
		// The audit-flat rows are held to 5% over the frozen untraced
		// baseline (checkBaseline's special case); frozen audit-* rows get
		// the usual fractional regression gate.
		if err := checkBaseline(jsonPath, results, tolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		worst := 0.0
		for _, n := range sizes {
			if o := overhead[n]; 100*(o.aud/o.base-1) > worst {
				worst = 100 * (o.aud/o.base - 1)
			}
		}
		fmt.Printf("\nbench-audit: +audit within the 5%% budget over the frozen untraced baseline (worst same-run overhead %.1f%%)\n", worst)
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
