package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsched/hfsc/internal/pktq"
)

// The flat-state golden traces gate memory-layout changes to the hot class
// state: the per-packet fields (virtual times, eligible/deadline/fit times,
// service totals) were moved from core.Class into index-addressed,
// cache-line-padded arrays owned by the scheduler, and any slip in that
// translation — a field read from the wrong slot, a stale mirror — shows up
// as a divergence from a trace recorded with the original pointer-per-class
// layout. The traces are frozen in testdata/ and replayed on every run; the
// workload is the same randomized-hierarchy generator the lockstep golden
// tests use, driven deterministically.
//
// Regenerate (only when the *scheduling semantics* intentionally change,
// never to paper over a layout bug):
//
//	go test ./internal/core -run TestFlatStateGoldenTrace -update-flat-golden

var updateFlatGolden = flag.Bool("update-flat-golden", false,
	"rewrite testdata/flatstate_*.json from the current implementation")

// flatTraceEvent is one observable scheduler decision. Dequeues record the
// selection (class, criterion, deadline); "idle" steps record the NextReady
// answer instead, so non-work-conserving pauses are part of the trace.
type flatTraceEvent struct {
	Step     int   `json:"step"`
	Class    int   `json:"class"`
	Crit     uint8 `json:"crit"`
	Deadline int64 `json:"deadline"`
	// Idle marks a nil Dequeue; Next/NextOK hold the NextReady answer.
	Idle   bool  `json:"idle,omitempty"`
	Next   int64 `json:"next,omitempty"`
	NextOK bool  `json:"next_ok,omitempty"`
}

// flatTraceFile is the on-disk trace: the generator seed pins the
// hierarchy and the packet sequence; Events is everything observed.
type flatTraceFile struct {
	Seed    int64            `json:"seed"`
	UscOn   bool             `json:"usc_on"`
	Backlog int              `json:"final_backlog"`
	Events  []flatTraceEvent `json:"events"`
}

// runFlatTrace drives one deterministic workload on s and returns the
// observed trace. The workload mirrors TestGoldenTraceRandom: bursty
// enqueues to random leaves, bursty dequeues, periodic NextReady probes.
func runFlatTrace(t *testing.T, s *Scheduler, seed int64, uscOn bool) ([]flatTraceEvent, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := randHierarchy(rng, uscOn, false)
	leaves := buildGolden(t, s, specs)

	var events []flatTraceEvent
	now := int64(0)
	for step := 0; step < 3000; step++ {
		now += int64(rng.Intn(3)) * int64(rng.Intn(200_000))
		for k := rng.Intn(3); k > 0; k-- {
			li := rng.Intn(len(leaves))
			ln := 64 + rng.Intn(1436)
			s.Enqueue(&pktq.Packet{Len: ln, Class: leaves[li]}, now)
		}
		for i := rng.Intn(4); i > 0; i-- {
			p := s.Dequeue(now)
			if p == nil {
				nxt, ok := s.NextReady(now)
				events = append(events, flatTraceEvent{Step: step, Idle: true, Next: nxt, NextOK: ok})
				break
			}
			events = append(events, flatTraceEvent{Step: step, Class: p.Class, Crit: uint8(p.Crit), Deadline: p.Deadline})
		}
		if step%97 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: invariants: %v", step, err)
			}
		}
	}
	return events, s.Backlog()
}

// flatGoldenPath names a frozen trace. The "rbtree" tag dates from when a
// second eligible-list structure had traces of its own; the files are
// kept byte-for-byte.
func flatGoldenPath(uscOn bool) string {
	return filepath.Join("testdata", fmt.Sprintf("flatstate_rbtree_usc%v.json", uscOn))
}

func TestFlatStateGoldenTrace(t *testing.T) {
	for _, uscOn := range []bool{false, true} {
		uscOn := uscOn
		t.Run(filepath.Base(flatGoldenPath(uscOn)), func(t *testing.T) {
			const seed = 20260808
			s := New(Options{})
			events, backlog := runFlatTrace(t, s, seed, uscOn)

			path := flatGoldenPath(uscOn)
			if *updateFlatGolden {
				raw, err := json.MarshalIndent(flatTraceFile{
					Seed: seed, UscOn: uscOn, Backlog: backlog, Events: events,
				}, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d events)", path, len(events))
				return
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing frozen trace (run with -update-flat-golden to create): %v", err)
			}
			var want flatTraceFile
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if want.Seed != seed || want.UscOn != uscOn {
				t.Fatalf("trace metadata mismatch: seed %d usc %v", want.Seed, want.UscOn)
			}
			if len(events) != len(want.Events) {
				t.Fatalf("trace length %d, frozen %d", len(events), len(want.Events))
			}
			for i, ev := range events {
				if ev != want.Events[i] {
					t.Fatalf("event %d diverged: got %+v, frozen %+v", i, ev, want.Events[i])
				}
			}
			if backlog != want.Backlog {
				t.Fatalf("final backlog %d, frozen %d", backlog, want.Backlog)
			}
		})
	}
}
