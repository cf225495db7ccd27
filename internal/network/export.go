package network

import "time"

// This file is the node runtime's checkpoint seam: a read-only skeleton
// of each terminal's per-neighbour link queues, captured in ascending
// neighbour-id order so snapshot verification can compare two
// processes' queue populations byte-for-byte.

// QueuedPacket is the skeleton of one buffered data packet.
type QueuedPacket struct {
	PktID uint64
	At    time.Duration // enqueue time (drives the buffer-lifetime expiry)
}

// QueueState is the skeleton of one per-neighbour link queue.
type QueueState struct {
	To    int
	Busy  bool
	Items []QueuedPacket // live window, head first
}

// ExportQueues snapshots terminal nd's link queues in neighbour order
// (empty idle queues are skipped; an empty queue that is still busy —
// its head handed to the MAC — is reported).
func (nd *Node) ExportQueues() []QueueState {
	var out []QueueState
	for _, hq := range nd.queues {
		q := hq.q
		if q.len() == 0 && !q.busy {
			continue
		}
		st := QueueState{To: hq.next, Busy: q.busy}
		for _, it := range q.items[q.head:] {
			st.Items = append(st.Items, QueuedPacket{PktID: it.id, At: it.at})
		}
		out = append(out, st)
	}
	return out
}
