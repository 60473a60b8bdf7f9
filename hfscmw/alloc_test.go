package hfscmw

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// Allocation budgets of the admission path, with metrics and auditing on:
// a warm Admit+Finish allocates only its Ticket, and a tenant's whole
// life — created on its first request, admitted, finished and evicted —
// stays within a fixed number of objects (13 measured: removing the
// tenant's class allocates nothing).
const (
	admitAllocsMax = 1
	cycleAllocsMax = 13
)

func TestAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l, err := New(Config{Concurrency: 32, DefaultEstimate: 10 * time.Microsecond, Metrics: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		tk, err := l.Admit(ctx, "warm", "op")
		if err != nil {
			t.Fatal(err)
		}
		tk.Finish(10 * time.Microsecond)
	})
	t.Logf("Admit+Finish: %.1f allocations", got)
	if got > admitAllocsMax {
		t.Errorf("Admit+Finish: %.1f allocations, want <= %d", got, admitAllocsMax)
	}
}

func TestTenantCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l, err := New(Config{
		Concurrency:     32,
		DefaultEstimate: 10 * time.Microsecond,
		EvictAfter:      time.Nanosecond, // collected on the pacing loop's next scans
		Metrics:         true,
		Audit:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	i := 0
	got := testing.AllocsPerRun(50, func() {
		name := names[i%len(names)]
		i++
		tk, err := l.Admit(ctx, name, "op")
		if err != nil {
			t.Fatal(err)
		}
		tk.Finish(10 * time.Microsecond)
		for deadline := time.Now().Add(5 * time.Second); ; {
			if _, live := l.tenants.Load(name); !live {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never evicted", name)
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
	t.Logf("create+admit+finish+evict: %.1f allocations", got)
	if got > cycleAllocsMax {
		t.Errorf("create+admit+finish+evict: %.1f allocations, want <= %d", got, cycleAllocsMax)
	}
}
