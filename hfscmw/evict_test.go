package hfscmw

// Tenant eviction through the scheduler's class lifecycle: idle tenants
// are collected after EvictAfter, their ledger holds released, and the
// next request re-creates them from scratch.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTenantEviction(t *testing.T) {
	l, err := New(Config{
		Concurrency: 4,
		EvictAfter:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	guaranteed, err := l.AddTenant("gold", SLO{Burst: 2, Latency: 10 * time.Millisecond, Sustained: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !guaranteed {
		t.Fatal("gold SLO not guaranteed against an empty ledger")
	}
	if got := len(l.Ledger().Entries()); got != 1 {
		t.Fatalf("ledger entries = %d, want 1", got)
	}

	tk, err := l.Admit(context.Background(), "gold", "GET /x")
	if err != nil {
		t.Fatal(err)
	}
	tk.Finish(time.Millisecond)

	// Idle now: the class must be collected, the ledger hold released, and
	// the tenant gone from Stats.
	waitFor(t, 5*time.Second, func() bool {
		_, live := l.Stats()["gold"]
		return !live
	}, "gold tenant eviction")
	waitFor(t, time.Second, func() bool {
		return len(l.Ledger().Entries()) == 0
	}, "ledger release on eviction")

	// The next request re-creates the tenant (with DefaultSLO, i.e. no
	// guarantee) and is served normally.
	tk, err = l.Admit(context.Background(), "gold", "GET /x")
	if err != nil {
		t.Fatalf("admit after eviction: %v", err)
	}
	tk.Done()
	st, ok := l.Stats()["gold"]
	if !ok {
		t.Fatal("re-created tenant missing from Stats")
	}
	if st.Guaranteed {
		t.Error("re-created tenant kept its guarantee; want DefaultSLO (none)")
	}
	if st.Admitted != 1 {
		t.Errorf("re-created tenant Admitted = %d, want 1 (counters restart)", st.Admitted)
	}
}

// Requests must keep flowing correctly while tenants are evicted and
// re-created underneath them: every Admit either succeeds (and the ticket
// completes) or fails with a sentinel, and nothing deadlocks.
func TestAdmitDuringEvictionChurn(t *testing.T) {
	l, err := New(Config{
		Concurrency: 16,
		EvictAfter:  time.Millisecond, // evict as aggressively as the scan allows
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const workers = 8
	var wg sync.WaitGroup
	var admitted, shed int64
	var mu sync.Mutex
	stop := time.Now().Add(500 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a", "b"}[w%2]
			for time.Now().Before(stop) {
				tk, err := l.Admit(context.Background(), name, "op")
				mu.Lock()
				if err == nil {
					admitted++
				} else if errors.Is(err, ErrOverloaded) {
					shed++
				} else {
					mu.Unlock()
					t.Errorf("admit: %v", err)
					return
				}
				mu.Unlock()
				if tk != nil {
					tk.Finish(0)
				}
				// Go idle long enough for the 1ms grace to elapse sometimes.
				time.Sleep(time.Duration(w%3) * 2 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatalf("no request admitted during churn (shed=%d)", shed)
	}
	t.Logf("admitted=%d shed=%d", admitted, shed)
}

// An evicted tenant leaves the telemetry with its class: re-admitted
// after each eviction, it must appear once in /metrics — no duplicate
// label sets — and Snapshot and AuditSnapshot must list only the live
// class, under its current id.
func TestEvictedTenantLeavesTelemetry(t *testing.T) {
	l, err := New(Config{
		Concurrency: 4,
		EvictAfter:  20 * time.Millisecond,
		Metrics:     true,
		Audit:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := l.AddTenant("gold", SLO{Burst: 2, Latency: 10 * time.Millisecond, Sustained: 1}); err != nil {
			t.Fatal(err)
		}
		tk, err := l.Admit(context.Background(), "gold", "GET /x")
		if err != nil {
			t.Fatalf("cycle %d: admit: %v", cycle, err)
		}
		tk.Finish(time.Millisecond)
		waitFor(t, 5*time.Second, func() bool {
			_, live := l.Stats()["gold"]
			return !live
		}, "gold tenant eviction")
	}
	// Re-admit once more and scrape while the tenant is live.
	tk, err := l.Admit(context.Background(), "gold", "GET /x")
	if err != nil {
		t.Fatalf("admit after evictions: %v", err)
	}
	tk.Done()
	id := l.Stats()["gold"].Class
	var buf strings.Builder
	if err := l.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if seen[key] {
			t.Errorf("duplicate sample %s", key)
		}
		seen[key] = true
	}
	if !seen[`hfsc_enqueued_packets_total{class="gold"}`] {
		t.Errorf("live tenant missing from /metrics:\n%s", buf.String())
	}
	for _, c := range l.Snapshot().Classes {
		if c.Name == "gold" && c.ID != id {
			t.Errorf("Snapshot lists evicted class gold#%d (live id %d)", c.ID, id)
		}
	}
	for _, c := range l.AuditSnapshot().Classes {
		if c.Name == "gold" && c.ID != id {
			t.Errorf("AuditSnapshot lists evicted class gold#%d (live id %d)", c.ID, id)
		}
	}
}
