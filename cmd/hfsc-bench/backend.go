package main

import (
	"fmt"
	"os"

	hfsc "github.com/netsched/hfsc"
	"github.com/netsched/hfsc/internal/stats"
)

// backendKinds are the TBL-O7 columns: the H-FSC core, and BackendAuto,
// which serves these link-sharing-only hierarchies on the HLS fast path.
// Both carry the workload, so the difference is pure per-packet cost.
var backendKinds = []hfsc.BackendKind{hfsc.BackendHFSC, hfsc.BackendAuto}

// buildBackendSched creates n link-sharing leaves under the root on the
// given datapath, splitting a 10 Gb/s link evenly.
func buildBackendSched(kind hfsc.BackendKind, n int) (*hfsc.Scheduler, []int) {
	s := hfsc.New(hfsc.Config{LinkRate: 10 * hfsc.Gbps, Backend: kind})
	rate := 10 * hfsc.Gbps / uint64(n)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		cl, err := s.AddClass(nil, fmt.Sprintf("c%d", i), hfsc.ClassConfig{LinkShare: hfsc.Linear(rate)})
		if err != nil {
			panic(err)
		}
		ids[i] = cl.ID()
	}
	return s, ids
}

// measureBackend is the steady-state enqueue+dequeue loop of measure(),
// run through the public Scheduler on the selected datapath. It also
// reports the datapath that served the loop (Scheduler.Backend).
func measureBackend(kind hfsc.BackendKind, n, ops int) (served string, nsPerPkt, allocsPerPkt float64) {
	s, ids := buildBackendSched(kind, n)
	now := int64(0)
	for i, id := range ids {
		s.Offer(&hfsc.Packet{Len: 1000, Class: id, Seq: uint64(i)}, now)
	}
	for i := 0; i < 2*len(ids); i++ {
		now += 800
		p := s.Dequeue(now)
		if p == nil {
			panic("backend idled during warmup")
		}
		p.Crit, p.Arrival = 0, 0
		s.Offer(p, now)
	}
	nsPerPkt, allocsPerPkt = clock(ops, func(int) {
		now += 800
		p := s.Dequeue(now)
		if p == nil {
			panic("backend idled unexpectedly")
		}
		p.Crit, p.Arrival = 0, 0
		s.Offer(p, now)
	})
	return s.Backend(), nsPerPkt, allocsPerPkt
}

// backendBest3 takes the best of three runs and reports the min-to-max
// spread, the honesty figure recorded next to gated rows.
func backendBest3(kind hfsc.BackendKind, n, ops int) (served string, ns, allocs, spreadPct float64) {
	served, ns, allocs = measureBackend(kind, n, ops)
	min, max := ns, ns
	for i := 0; i < 2; i++ {
		_, n2, a2 := measureBackend(kind, n, ops)
		if n2 < min {
			min, allocs = n2, a2
		}
		if n2 > max {
			max = n2
		}
	}
	return served, min, allocs, 100 * (max - min) / min
}

// backendRows measures the TBL-O7 datapath-vs-cost matrix and returns
// ns/pkt keyed by "datapath/classes" for the gates. Rows are appended via
// record, named after the datapath that served them ("backend-hfsc",
// "backend-hls"), so they land in the perf-tracking file and the
// regression gate.
func backendRows(ops int, record func(name string, classes int, ns, allocs, spread float64)) map[string]float64 {
	sizes := []int{64, 1024, 4096}
	out := map[string]float64{}
	tbl := &stats.Table{Header: []string{"classes", "hfsc", "auto (hls)", "hls speedup"}}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, kind := range backendKinds {
			served, ns, allocs, spread := backendBest3(kind, n, ops)
			out[fmt.Sprintf("%s/%d", served, n)] = ns
			record("backend-"+served, n, ns, allocs, spread)
			row = append(row, fmt.Sprintf("%.0f ns/pkt", ns))
		}
		row = append(row, fmt.Sprintf("%.1fx",
			out[fmt.Sprintf("hfsc/%d", n)]/out[fmt.Sprintf("hls/%d", n)]))
		tbl.AddRow(row...)
	}
	fmt.Println()
	fmt.Println("TBL-O7: per-packet cost by datapath (link-sharing-only hierarchy, one enqueue + one dequeue, best of 3)")
	fmt.Println()
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return out
}

// checkBackendSpeed is the tentpole acceptance gate: the HLS fast path
// must be at least minSpeedup times cheaper per packet than the H-FSC
// core on link-sharing-only hierarchies at 1024 and 4096 classes.
func checkBackendSpeed(rows map[string]float64, minSpeedup float64) error {
	for _, n := range []int{1024, 4096} {
		hfscNs := rows[fmt.Sprintf("hfsc/%d", n)]
		hlsNs := rows[fmt.Sprintf("hls/%d", n)]
		if hlsNs <= 0 {
			return fmt.Errorf("hfsc-bench -check: no hls measurement at %d classes", n)
		}
		if sp := hfscNs / hlsNs; sp < minSpeedup {
			return fmt.Errorf("hfsc-bench -check: hls speedup %.2fx at %d classes, want >= %.1fx (hfsc %.0f ns/pkt, hls %.0f ns/pkt)",
				sp, n, minSpeedup, hfscNs, hlsNs)
		}
	}
	return nil
}
