package metrics

import "sort"

// MergeSnapshots folds per-shard snapshots into one, for drivers that run
// several schedulers side by side (a multi-shard PacedQueue).
// Scheduler-level counters sum, the clock is the newest across shards, and
// class entries — which are disjoint between shards — are concatenated. Class ids are local to
// each shard's scheduler, so remap translates (shard index, local id) to
// the merged id space; returning ok=false drops the entry (e.g. a shard's
// root). A nil remap keeps local ids, which is only meaningful for a
// single snapshot. Nil snapshots are skipped.
//
// The merged class entries share the shards' histogram counts (each
// capped at its own length), so a merge costs a constant number of
// allocations: the Snapshot, one slab of class entries, the two span
// histograms' counts and the sort's bookkeeping.
func MergeSnapshots(snaps []*Snapshot, remap func(shard, id int) (int, bool)) *Snapshot {
	out := &Snapshot{}
	n := 0
	for _, s := range snaps {
		if s != nil {
			n += len(s.Classes)
		}
	}
	if n > 0 {
		out.Classes = make([]ClassSnapshot, 0, n)
	}
	for i, s := range snaps {
		if s == nil {
			continue
		}
		if s.Now > out.Now {
			out.Now = s.Now
		}
		out.UlimitDefers += s.UlimitDefers
		out.DropsUnknownClass += s.DropsUnknownClass
		out.DropsBadPacket += s.DropsBadPacket
		out.DropsIntakeFull += s.DropsIntakeFull
		out.DropsStopped += s.DropsStopped
		out.SpansSampled += s.SpansSampled
		out.FlightRecorded += s.FlightRecorded
		out.FlightDropped += s.FlightDropped
		mergeHist(&out.SpanIntakeWait, s.SpanIntakeWait)
		mergeHist(&out.SpanQueueDelay, s.SpanQueueDelay)
		for _, c := range s.Classes {
			if remap != nil {
				id, ok := remap(i, c.ID)
				if !ok {
					continue
				}
				c.ID = id
			}
			out.Classes = append(out.Classes, c)
		}
	}
	if len(out.Classes) == 0 {
		out.Classes = nil
	}
	sort.Slice(out.Classes, func(a, b int) bool { return out.Classes[a].ID < out.Classes[b].ID })
	return out
}

// mergeHist folds src into dst. The first non-empty histogram is copied
// (never aliased — shard snapshots stay immutable); later ones add
// elementwise when the bucket bounds agree. Zero-value histograms (a
// never-started shard) merge as no-ops, and mismatched bounds (only
// hand-built snapshots; the aggregator's buckets are fixed) fold into
// Sum/Count only, so the totals stay right even when the buckets cannot
// line up.
func mergeHist(dst *HistogramSnapshot, src HistogramSnapshot) {
	if src.Count == 0 && len(src.Bounds) == 0 {
		return
	}
	if dst.Counts == nil {
		dst.Bounds = src.Bounds // bounds are immutable; sharing is safe
		dst.Counts = append([]uint64(nil), src.Counts...)
		dst.Sum = src.Sum
		dst.Count = src.Count
		return
	}
	if len(dst.Bounds) == len(src.Bounds) && len(dst.Counts) == len(src.Counts) {
		same := true
		for i := range dst.Bounds {
			if dst.Bounds[i] != src.Bounds[i] {
				same = false
				break
			}
		}
		if same {
			for i := range src.Counts {
				dst.Counts[i] += src.Counts[i]
			}
			dst.Sum += src.Sum
			dst.Count += src.Count
			return
		}
	}
	dst.Sum += src.Sum
	dst.Count += src.Count
}
