package metrics

import "testing"

func TestMergeSnapshots(t *testing.T) {
	a := &Snapshot{
		Now:            100,
		UlimitDefers:   2,
		DropsBadPacket: 1,
		Classes: []ClassSnapshot{
			{ID: 1, Name: "voice", EnqueuedPackets: 10},
			{ID: 2, Name: "bulk", EnqueuedPackets: 20},
		},
	}
	b := &Snapshot{
		Now:             250,
		UlimitDefers:    3,
		DropsIntakeFull: 7,
		Classes: []ClassSnapshot{
			{ID: 1, Name: "video", EnqueuedPackets: 30},
		},
	}
	remap := func(shard, id int) (int, bool) {
		if shard == 0 {
			return id, true // shard 0 keeps 1, 2
		}
		if id == 1 {
			return 3, true // shard 1's class 1 is global 3
		}
		return 0, false
	}
	m := MergeSnapshots([]*Snapshot{a, nil, b}, remap)
	if m.Now != 250 {
		t.Fatalf("Now = %d, want max 250", m.Now)
	}
	if m.UlimitDefers != 5 || m.DropsBadPacket != 1 || m.DropsIntakeFull != 7 {
		t.Fatalf("scheduler counters not summed: %+v", m)
	}
	if len(m.Classes) != 3 {
		t.Fatalf("got %d classes, want 3", len(m.Classes))
	}
	for i, want := range []struct {
		id   int
		name string
	}{{1, "voice"}, {2, "bulk"}, {3, "video"}} {
		if m.Classes[i].ID != want.id || m.Classes[i].Name != want.name {
			t.Fatalf("class[%d] = %d/%q, want %d/%q",
				i, m.Classes[i].ID, m.Classes[i].Name, want.id, want.name)
		}
	}
	if got, ok := m.Class(3); !ok || got.EnqueuedPackets != 30 {
		t.Fatalf("Class(3) = %+v, %v", got, ok)
	}

	// Dropped entries: remap rejecting everything yields scheduler-level
	// sums only.
	none := MergeSnapshots([]*Snapshot{a, b}, func(int, int) (int, bool) { return 0, false })
	if len(none.Classes) != 0 || none.UlimitDefers != 5 {
		t.Fatalf("reject-all merge kept classes: %+v", none)
	}
}

func spanHist(bounds []int64, counts []uint64, sum int64, n uint64) HistogramSnapshot {
	return HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: sum, Count: n}
}

func TestMergeSnapshotsSpanAndFlight(t *testing.T) {
	bounds := []int64{10, 100}
	a := &Snapshot{
		SpansSampled:   4,
		FlightRecorded: 100,
		FlightDropped:  5,
		SpanIntakeWait: spanHist(bounds, []uint64{1, 2, 1}, 300, 4),
		SpanQueueDelay: spanHist(bounds, []uint64{4, 0, 0}, 20, 4),
	}
	b := &Snapshot{
		SpansSampled:   2,
		FlightRecorded: 50,
		FlightDropped:  0,
		SpanIntakeWait: spanHist(bounds, []uint64{2, 0, 0}, 10, 2),
		SpanQueueDelay: spanHist(bounds, []uint64{0, 2, 0}, 100, 2),
	}
	// zero is the never-started-queue path: Stats/Snapshot on a queue that
	// never ran yields a fully zero-valued Snapshot (nil histogram fields).
	zero := &Snapshot{}

	m := MergeSnapshots([]*Snapshot{a, zero, b}, nil)
	if m.SpansSampled != 6 || m.FlightRecorded != 150 || m.FlightDropped != 5 {
		t.Fatalf("span/flight counters: %+v", m)
	}
	iw := m.SpanIntakeWait
	if iw.Count != 6 || iw.Sum != 310 {
		t.Fatalf("intake-wait totals: %+v", iw)
	}
	for i, want := range []uint64{3, 2, 1} {
		if iw.Counts[i] != want {
			t.Fatalf("intake-wait counts = %v", iw.Counts)
		}
	}
	if m.SpanQueueDelay.Counts[0] != 4 || m.SpanQueueDelay.Counts[1] != 2 {
		t.Fatalf("queue counts = %v", m.SpanQueueDelay.Counts)
	}

	// Merging must not alias shard snapshots: the input histograms stay
	// untouched.
	if a.SpanIntakeWait.Counts[0] != 1 || b.SpanIntakeWait.Counts[0] != 2 {
		t.Fatal("merge mutated an input snapshot")
	}

	// All-zero inputs stay zero-valued (no phantom buckets).
	z := MergeSnapshots([]*Snapshot{zero, {}}, nil)
	if z.SpanIntakeWait.Counts != nil || z.SpansSampled != 0 || z.FlightRecorded != 0 {
		t.Fatalf("zero merge produced state: %+v", z)
	}

	// Mismatched bounds degrade to Sum/Count-only folding.
	c := &Snapshot{SpanIntakeWait: spanHist([]int64{5}, []uint64{3, 0}, 9, 3)}
	mm := MergeSnapshots([]*Snapshot{a, c}, nil)
	if mm.SpanIntakeWait.Count != 7 || mm.SpanIntakeWait.Sum != 309 {
		t.Fatalf("mismatched-bounds merge: %+v", mm.SpanIntakeWait)
	}
	if len(mm.SpanIntakeWait.Counts) != 3 || mm.SpanIntakeWait.Counts[0] != 1 {
		t.Fatalf("mismatched-bounds merge corrupted buckets: %v", mm.SpanIntakeWait.Counts)
	}
}
