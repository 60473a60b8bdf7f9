package hfscmw

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWakeChannelRecycleRace: admission wake channels are recycled from
// one request to the next, so the one send meant for a waiter must never
// reach another. Sixteen goroutines admit with contexts that expire around
// their admission (abandon racing transmit) against tenants that are
// evicted under in-flight requests (onReject), and the limiter closes in
// the middle of the wave. Every ticket Admit returns must carry a gate
// that transmit admitted, no waiter may hang, and every channel left on
// the free list must be empty.
func TestWakeChannelRecycleRace(t *testing.T) {
	const (
		rounds  = 4
		workers = 16
		tenants = 24
	)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	for round := 0; round < rounds; round++ {
		l, err := New(Config{
			Concurrency:     2,
			DefaultEstimate: 100 * time.Microsecond,
			EvictAfter:      time.Millisecond, // evict as aggressively as the scan allows
			MaxPending:      -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wrong, admitted atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(w)))
				for {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.IntN(1500))*time.Microsecond)
					tk, err := l.Admit(ctx, names[rng.IntN(tenants)], "op")
					cancel()
					switch {
					case err == nil:
						if tk.state.Load() != gateAdmitted {
							wrong.Add(1)
						}
						admitted.Add(1)
						tk.Finish(time.Duration(rng.IntN(200)) * time.Microsecond)
					case errors.Is(err, ErrClosed):
						return
					case errors.Is(err, ErrOverloaded), errors.Is(err, context.DeadlineExceeded):
					default:
						t.Errorf("admit: %v", err)
						return
					}
					if rng.IntN(8) == 0 {
						time.Sleep(2 * time.Millisecond) // let tenants go idle and be evicted
					}
				}
			}(w)
		}
		time.Sleep(100 * time.Millisecond)
		finished := make(chan struct{})
		go func() {
			l.Close()
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Close or its waiters still blocked after 10s", round)
		}
		if n := wrong.Load(); n > 0 {
			t.Fatalf("round %d: %d of %d tickets were issued on a gate transmit never admitted", round, n, admitted.Load())
		}
		if admitted.Load() == 0 {
			t.Fatalf("round %d: no request admitted", round)
		}
		for empty := false; !empty; {
			select {
			case ch := <-l.wakeChans:
				if len(ch) != 0 {
					t.Fatalf("round %d: a recycled wake channel holds a stale send", round)
				}
			default:
				empty = true
			}
		}
	}
}
