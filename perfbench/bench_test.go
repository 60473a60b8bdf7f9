package main

import (
	"strings"
	"testing"
	"time"
)

// smallReplay is replay-4k with a 2^15-arrival trace: the same tree,
// traffic model and checks, small enough for a unit test.
func smallReplay(t *testing.T, seed uint64) map[string]float64 {
	t.Helper()
	res, err := replayRun(opts{seed: seed, seconds: 1}, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	res.check()
	if len(res.failures) > 0 {
		t.Fatalf("seed %d: checks failed: %v", seed, res.failures)
	}
	vals := map[string]float64{}
	for _, m := range res.metrics {
		vals[m.name] = m.value
	}
	return vals
}

var virtualClock = []string{"latency_p50_us", "latency_p99_us", "rt_met_ratio", "delivered_ratio", "ls_fairness", "link_util"}

func TestReplayVirtualMetricsFollowTheSeed(t *testing.T) {
	a, b, c := smallReplay(t, 1), smallReplay(t, 1), smallReplay(t, 2)
	differ := 0
	for _, name := range virtualClock {
		if a[name] != b[name] {
			t.Errorf("%s: %v and %v on two runs of seed 1", name, a[name], b[name])
		}
		if a[name] != c[name] {
			differ++
		}
	}
	for _, name := range []string{"latency_p50_us", "latency_p99_us", "ls_fairness"} {
		if a[name] == c[name] {
			t.Errorf("%s: seeds 1 and 2 both gave %v", name, a[name])
		}
	}
	if differ == 0 {
		t.Error("seeds 1 and 2 gave identical virtual-clock metrics")
	}
}

func TestChecksRejectOneDroppedItem(t *testing.T) {
	ok := &result{attempted: 1000, delivered: 998, refused: 2}
	ok.check()
	if len(ok.failures) > 0 {
		t.Fatalf("a conserving result failed: %v", ok.failures)
	}
	lost := &result{attempted: 1000, delivered: 997, refused: 2}
	lost.check()
	if len(lost.failures) != 1 || !strings.Contains(lost.failures[0], "conservation") {
		t.Fatalf("one dropped item: failures %v, want one conservation failure", lost.failures)
	}
	if !strings.HasPrefix(lost.json(), `{"correct": false,`) {
		t.Errorf("result line does not report the failure: %s", lost.json())
	}
}

// TestShaperDrainTimeDropFailsTheRun points leaf 0 at a class the
// scheduler does not have, so the pacing goroutine refuses its packets at
// drain time (OnReject) after SubmitN accepted them. The run must finish,
// count each refusal and fail its checks.
func TestShaperDrainTimeDropFailsTheRun(t *testing.T) {
	r, err := newShaperRun(1)
	if err != nil {
		t.Fatal(err)
	}
	r.ids[0] = 1 << 20
	r.produce(1<<12, nil)
	r.q.Stop()
	res := &result{}
	r.collect(res)
	res.check()
	if r.dropped == 0 || r.stalled != 0 {
		t.Fatalf("dropped %d, stalled %d: want drain-time drops and a drained window", r.dropped, r.stalled)
	}
	if res.attempted != res.delivered+res.refused {
		t.Errorf("attempted %d != delivered %d + refused %d", res.attempted, res.delivered, res.refused)
	}
	if !strings.HasPrefix(res.json(), `{"correct": false,`) {
		t.Errorf("result line does not report the drops: %s", res.json())
	}
}

// TestShaperAndChurnRun runs short shaper-64b and mw-churn phases through
// their checks; under -race it also covers the benchmark's own
// goroutine hand-offs (doorbell, per-request lanes).
func TestShaperAndChurnRun(t *testing.T) {
	sr, err := shaperOnce(1, 1<<14, true)
	if err != nil {
		t.Fatal(err)
	}
	if sr.r.failures != nil || sr.r.attempted != sr.r.delivered+sr.r.refused {
		t.Errorf("shaper: failures %v, attempted %d delivered %d refused %d",
			sr.r.failures, sr.r.attempted, sr.r.delivered, sr.r.refused)
	}
	c, err := churnOnce(1, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.failures != nil || c.admitted == 0 {
		t.Errorf("churn: failures %v, admitted %d of %d", c.failures, c.admitted, len(c.reqs))
	}
}
