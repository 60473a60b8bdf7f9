package hfscmw_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/netsched/hfsc/hfscmw"
)

// limiterScrapeAllocsMax is the most allocations one telemetry read of a
// Limiter may cost, whatever the tenant count.
const limiterScrapeAllocsMax = 24

// scrapeLimiter builds a Limiter with metrics and auditing on and n
// tenants that have each been admitted and finished once.
func scrapeLimiter(t *testing.T, n int) *hfscmw.Limiter {
	t.Helper()
	l, err := hfscmw.New(hfscmw.Config{
		Concurrency:     64,
		DefaultEstimate: 10 * time.Microsecond,
		Metrics:         true,
		Audit:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	for i := 0; i < n; i++ {
		slo := hfscmw.SLO{Sustained: 0.01}
		if i%2 == 0 {
			slo = hfscmw.SLO{Burst: 0.02, Latency: 10 * time.Millisecond, Sustained: 0.01}
		}
		name := fmt.Sprintf("tenant-%d", i)
		if _, err := l.AddTenant(name, slo); err != nil {
			t.Fatal(err)
		}
		tk, err := l.Admit(context.Background(), name, "GET /")
		if err != nil {
			t.Fatal(err)
		}
		tk.Finish(10 * time.Microsecond)
	}
	return l
}

// TestLimiterScrapeAllocsConstant: WriteMetrics, Snapshot and
// AuditSnapshot cost the same number of allocations at 16 tenants as at
// 1024, and no more than limiterScrapeAllocsMax.
func TestLimiterScrapeAllocsConstant(t *testing.T) {
	measure := func(l *hfscmw.Limiter) [3]float64 {
		return [3]float64{
			testing.AllocsPerRun(20, func() {
				if err := l.WriteMetrics(io.Discard); err != nil {
					t.Fatal(err)
				}
			}),
			testing.AllocsPerRun(20, func() { l.Snapshot() }),
			testing.AllocsPerRun(20, func() { l.AuditSnapshot() }),
		}
	}
	few, many := measure(scrapeLimiter(t, 16)), measure(scrapeLimiter(t, 1024))
	t.Logf("allocs at 16/1024 tenants: WriteMetrics %.0f/%.0f, Snapshot %.0f/%.0f, AuditSnapshot %.0f/%.0f",
		few[0], many[0], few[1], many[1], few[2], many[2])
	for i, what := range []string{"WriteMetrics", "Snapshot", "AuditSnapshot"} {
		if few[i] != many[i] {
			t.Errorf("%s: %.0f allocations at 16 tenants, %.0f at 1024", what, few[i], many[i])
		}
		if many[i] > limiterScrapeAllocsMax {
			t.Errorf("%s: %.0f allocations, want <= %d", what, many[i], limiterScrapeAllocsMax)
		}
	}
}
