package mac

import (
	"math/rand"
	"testing"
	"time"

	"rica/internal/obs"
	"rica/internal/packet"
)

// jamPkt builds a jam burst from the given terminal.
func jamPkt(from, size int) *packet.Packet {
	p := packet.Get()
	p.Type = packet.TypeJam
	p.From = from
	p.To = packet.Broadcast
	p.Size = size
	return p
}

func TestJamIsNeverDelivered(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	reg := obs.NewRegistry()
	c.SetObs(reg)
	heard := 0
	c.Register(0, func(*packet.Packet, time.Duration) { heard++ })
	c.Register(1, func(*packet.Packet, time.Duration) { heard++ })
	// An arena's burst, as the world's jam runner airs: Jam takes
	// ownership and Releases it when the burst leaves the air.
	arena := packet.NewArena()
	burst := arena.Get()
	burst.CopyFrom(jamPkt(0, packet.SizeJam))
	c.Jam(burst)
	k.Run(time.Second)
	if heard != 0 {
		t.Errorf("jam burst was delivered %d times; it is pure interference", heard)
	}
	if got := reg.Snapshot().JamTransmitted; got != 1 {
		t.Errorf("JamTransmitted = %d, want 1", got)
	}
	if live := arena.Live(); live != 0 {
		t.Errorf("jam leaked %d packets", live)
	}
}

func TestJamHoldsHonestSendersInBackoff(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0}, fixedPos{X: 200, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	reg := obs.NewRegistry()
	c.SetObs(reg)
	got := make(map[int]int)
	for i := 0; i < 3; i++ {
		i := i
		c.Register(i, func(*packet.Packet, time.Duration) { got[i]++ })
	}
	// A 1024-byte burst holds the carrier for ~33 ms; node 1 hears it and
	// must back off, then transmit cleanly once the air clears.
	c.Jam(jamPkt(0, 1024))
	k.Schedule(time.Millisecond, func(time.Duration) {
		c.Send(ctrlPkt(packet.TypeRREQ, 1, packet.Broadcast))
	})
	k.Run(time.Second)
	if reg.Snapshot().MACBackoffs == 0 {
		t.Error("honest sender never backed off against the jam carrier")
	}
	if got[0] != 1 || got[2] != 1 {
		t.Errorf("post-jam broadcast deliveries = %v, want nodes 0 and 2 once each", got)
	}
}

func TestJamDestroysOverlappingBroadcast(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0}, fixedPos{X: 200, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	reg := obs.NewRegistry()
	c.SetObs(reg)
	got := make(map[int]int)
	for i := 0; i < 3; i++ {
		i := i
		c.Register(i, func(*packet.Packet, time.Duration) { got[i]++ })
	}
	// Node 0's 512-byte broadcast airs for ~16 ms; node 2 — a hidden
	// terminal from node 0's perspective is not even needed, jam ignores
	// carrier sense — fires a burst overlapping it. The jam reaches node
	// 1, so the broadcast is destroyed there; node 2 is itself
	// transmitting, so it cannot hear either.
	pkt := ctrlPkt(packet.TypeRREQ, 0, packet.Broadcast)
	pkt.Size = 512
	c.Send(pkt)
	k.Schedule(2*time.Millisecond, func(time.Duration) {
		c.Jam(jamPkt(2, 512))
	})
	k.Run(time.Second)
	if got[1] != 0 || got[2] != 0 {
		t.Errorf("jammed broadcast still delivered: %v", got)
	}
	if reg.Snapshot().MACCollisions == 0 {
		t.Error("no collision recorded for the jammed broadcast")
	}
}

func TestSelfJamWipesOwnBroadcast(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0}, fixedPos{X: 200, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	got := make(map[int]int)
	for i := 0; i < 3; i++ {
		i := i
		c.Register(i, func(*packet.Packet, time.Duration) { got[i]++ })
	}
	// The jammer's own radio steps on its honest transmission: Jam skips
	// carrier sense, so node 0 can burst mid-broadcast. Every receiver of
	// the broadcast hears the overlap, so nothing survives.
	pkt := ctrlPkt(packet.TypeRREQ, 0, packet.Broadcast)
	pkt.Size = 512
	c.Send(pkt)
	k.Schedule(2*time.Millisecond, func(time.Duration) {
		c.Jam(jamPkt(0, 256))
	})
	k.Run(time.Second)
	if got[1] != 0 || got[2] != 0 {
		t.Errorf("self-jammed broadcast still delivered: %v", got)
	}
}
