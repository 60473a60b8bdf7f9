package hfsc

// ShardOf reports the index of the shard a class id names: the id's low
// shard bits.
func ShardOf(q *PacedQueue, id int) int { return id & (1<<q.bits - 1) }
