package hfsc

import "time"

// ShardOf reports the index of the shard a class id names: the id's low
// shard bits.
func ShardOf(q *PacedQueue, id int) int { return id & (1<<q.bits - 1) }

// SetRebalanceEvery sets a multi-shard queue's rebalancing period; call it
// before Start.
func SetRebalanceEvery(q *PacedQueue, d time.Duration) { q.rebEvery = d }

// Rebalance runs one rebalancing pass now. A no-op with one shard.
func Rebalance(q *PacedQueue) {
	if q.rebal != nil {
		q.rebalance(Now(time.Now()))
	}
}

// Parked reports whether a one-shard queue's pacing goroutine is parked
// (or about to park) with nothing to send.
func Parked(q *PacedQueue) bool { return q.shards[0].idle.Load() }
