package hfsc

import "github.com/netsched/hfsc/internal/pktq"

// GetPacket returns a zeroed Packet from the process-wide packet pool.
// Pair it with Packet.Release to run high-rate producers allocation-free.
//
// Ownership rule: a packet handed to Submit/SubmitN (on acceptance) or
// Enqueue belongs to the scheduler until it reappears in the Transmit
// callback (or Dequeue); only then may the receiver Release it. A packet
// the shaper *refused* — Submit returned a non-DropNone reason, or the
// packet sits in ps[accepted:] after SubmitN — never left the caller,
// who may Release or retry it. Never Release a packet still queued.
//
// Release keeps a Payload backing array of up to 2 KiB, so pooled packets
// reused for similarly-sized payloads stop allocating once warm; a larger
// array is dropped, so idle pooled packets never pin big buffers.
func GetPacket() *Packet { return pktq.Get() }
