package network

import "rica/internal/checkpoint"

// This file is the node runtime's part of the checkpoint section NODE:
// each terminal's per-neighbour link queues, in ascending neighbour-id
// order, so snapshot verification can compare two processes' queue
// populations byte-for-byte.

// Queued reports how many of the terminal's link queues CaptureQueues
// writes: every queue holding a packet or still busy (its head handed to
// the MAC). Empty idle queues are left out.
func (nd *Node) Queued() int {
	n := 0
	for _, hq := range nd.queues {
		if hq.q.len() > 0 || hq.q.busy {
			n++
		}
	}
	return n
}

// CaptureQueues writes the Queued link queues to e in neighbour order:
// the next hop, the busy flag and the live window head first, each
// packet as its id and enqueue time (which drives the buffer-lifetime
// expiry). The id is the queue's by-value copy: inside an ACK window the
// receiver already owns the packet the queue's pointer names.
func (nd *Node) CaptureQueues(e *checkpoint.Enc) {
	e.Int(nd.Queued())
	for _, hq := range nd.queues {
		q := hq.q
		if q.len() == 0 && !q.busy {
			continue
		}
		e.Int(hq.next)
		e.Bool(q.busy)
		e.Int(q.len())
		for _, it := range q.items[q.head:] {
			e.U64(it.id)
			e.Dur(it.at)
		}
	}
}
