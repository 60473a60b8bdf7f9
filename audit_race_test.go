package hfsc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAuditVerdictCollectIdleRace is the guarantee-auditor stress test
// `make stress` runs under the race detector: a reader goroutine polls
// merged audit verdicts off a 4-shard PacedQueue while producers churn
// template-created classes through their idle grace — so CollectIdle
// keeps retiring class ids mid-window and the template keeps re-creating
// the same names under fresh ids. The auditor (per shard, merged through
// the global id remap) must never panic, tear a snapshot, or go
// inconsistent: in every polled snapshot violations may not exceed
// checks and burn rates must stay within [0, 1].
func TestAuditVerdictCollectIdleRace(t *testing.T) {
	var transmitted atomic.Uint64
	rt, err := ForRealTime(256, 10*time.Millisecond, 10*Mbps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiQueue(MultiConfig{
		Config: Config{
			LinkRate: 100 * Gbps,
			Metrics:  true,
			Audit:    true,
			AutoClass: &ClassTemplate{
				Class: ClassConfig{RealTime: rt, LinkShare: Linear(10 * Mbps)},
				Grace: 2 * time.Millisecond,
			},
		},
		Shards: 4,
	}, func(p *Packet) {
		transmitted.Add(1)
		p.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	// Sixteen names spread across the shards: each is created on first
	// submit, drains, sits out its grace, is collected, and is re-created
	// with a fresh id — while the reader holds verdicts for the old id.
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("slo/%d", i)
	}
	iters := 2500
	if testing.Short() {
		iters = 600
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var readerErr atomic.Value
	var polls atomic.Uint64
	go func() {
		defer close(done)
		for {
			snap := m.AuditSnapshot()
			if snap == nil {
				readerErr.Store("AuditSnapshot returned nil with Audit on")
				return
			}
			for _, ca := range snap.Classes {
				if ca.Violations > ca.Checks {
					readerErr.Store(fmt.Sprintf("class %q: %d violations > %d checks", ca.Name, ca.Violations, ca.Checks))
					return
				}
				for _, r := range []float64{ca.BurnRate1s, ca.BurnRate30s, ca.BurnRate5m} {
					if r < 0 || r > 1 {
						readerErr.Store(fmt.Sprintf("class %q: burn rate %v outside [0,1]", ca.Name, r))
						return
					}
				}
			}
			snap.Verdict() // merged link verdict over a churning class set
			if m.Snapshot() == nil {
				readerErr.Store("metrics snapshot nil with Metrics on")
				return
			}
			polls.Add(1)
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				name := names[rng.Intn(len(names))]
				p := GetPacket()
				p.Len = 256
				switch r := m.SubmitTo(name, p); r {
				case DropNone:
				case DropIntakeFull, DropUnknownClass, DropQueueLimit:
					p.Release()
				default:
					p.Release()
					t.Errorf("SubmitTo(%s): %v", name, r)
					return
				}
				// Let names drain past their grace now and then, then force
				// a collection scan so ids retire while the reader polls.
				if i%200 == 199 {
					time.Sleep(3 * time.Millisecond)
					m.CollectIdle()
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain, collect one last time, and let the reader observe the
	// post-churn world before stopping it.
	time.Sleep(5 * time.Millisecond)
	m.CollectIdle()
	close(stop)
	<-done
	if v := readerErr.Load(); v != nil {
		t.Fatalf("audit reader: %v", v)
	}
	if polls.Load() == 0 {
		t.Fatal("reader never polled a snapshot")
	}
	if transmitted.Load() == 0 {
		t.Fatal("nothing transmitted")
	}
}
