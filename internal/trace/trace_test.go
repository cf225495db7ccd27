package trace

import (
	"strings"
	"testing"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
)

func ev(id uint64, at time.Duration) Event {
	return Event{At: at, Kind: KindControl, PacketID: id, PacketType: packet.TypeRREQ}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRecorder(3)
	for i := uint64(1); i <= 5; i++ {
		r.Record(ev(i, time.Duration(i)))
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i].PacketID != want {
			t.Fatalf("events = %+v, want ids 3,4,5", got)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
}

func TestPartialRing(t *testing.T) {
	r := NewRecorder(10)
	r.Record(ev(1, 1))
	r.Record(ev(2, 2))
	got := r.Events()
	if len(got) != 2 || got[0].PacketID != 1 || got[1].PacketID != 2 {
		t.Fatalf("events = %+v", got)
	}
}

func TestFilterKeepsCounting(t *testing.T) {
	r := NewRecorder(10)
	r.Filter = func(e Event) bool { return e.Kind == KindDropped }
	r.Record(ev(1, 1)) // filtered out
	r.Record(Event{Kind: KindDropped, PacketID: 2})
	if got := r.Events(); len(got) != 1 || got[0].PacketID != 2 {
		t.Fatalf("events = %+v", got)
	}
	if r.Total() != 2 {
		t.Fatalf("Total = %d, want 2 (filtered events still count)", r.Total())
	}
}

func TestZeroCapacityCountsWithoutRetaining(t *testing.T) {
	r := NewRecorder(0)
	for i := uint64(1); i <= 4; i++ {
		r.Record(ev(i, time.Duration(i)))
	}
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("capacity-0 recorder retained %d events: %+v", len(got), got)
	}
	if r.Total() != 4 {
		t.Fatalf("Total = %d, want 4", r.Total())
	}
}

func TestCapacityOneKeepsOnlyNewest(t *testing.T) {
	r := NewRecorder(1)
	// Empty before any event.
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("fresh recorder has events: %+v", got)
	}
	// One event: retained.
	r.Record(ev(1, 1))
	if got := r.Events(); len(got) != 1 || got[0].PacketID != 1 {
		t.Fatalf("events = %+v, want just id 1", got)
	}
	// Every further event wraps the single slot in place.
	for i := uint64(2); i <= 5; i++ {
		r.Record(ev(i, time.Duration(i)))
		got := r.Events()
		if len(got) != 1 || got[0].PacketID != i {
			t.Fatalf("after %d records events = %+v, want just id %d", i, got, i)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
}

func TestExactCapacityBoundary(t *testing.T) {
	// Exactly filling the ring (no wrap yet) must report all events in
	// order — the filled/next bookkeeping flips exactly at this point.
	r := NewRecorder(3)
	for i := uint64(1); i <= 3; i++ {
		r.Record(ev(i, time.Duration(i)))
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []uint64{1, 2, 3} {
		if got[i].PacketID != want {
			t.Fatalf("events = %+v, want ids 1,2,3", got)
		}
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(-1) did not panic")
		}
	}()
	NewRecorder(-1)
}

func TestDataEvents(t *testing.T) {
	r := NewRecorder(10)
	pkt := &packet.Packet{Type: packet.TypeData, ID: 7, Src: 1, Dst: 2, From: 4, CreatedAt: time.Second}
	r.DataGenerated(pkt, time.Second)
	r.DataDelivered(pkt, 2*time.Second)
	r.DataDropped(pkt, network.DropCongestion, 3*time.Second)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("trace events = %d, want 3", len(evs))
	}
	if evs[0].Kind != KindGenerated || evs[1].Kind != KindDelivered || evs[2].Kind != KindDropped {
		t.Fatalf("kinds = %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	// Each kind is stamped with the terminal where it happened: the
	// source, the destination, the holder that discarded it.
	if evs[0].Node != 1 || evs[1].Node != 2 || evs[2].Node != 4 {
		t.Fatalf("nodes = %d %d %d, want 1 2 4", evs[0].Node, evs[1].Node, evs[2].Node)
	}
	if !strings.Contains(evs[1].Detail, "delay=1s") {
		t.Fatalf("delivery detail = %q", evs[1].Detail)
	}
	if evs[2].Detail != "congestion" {
		t.Fatalf("drop detail = %q", evs[2].Detail)
	}
}

func TestControlEvents(t *testing.T) {
	r := NewRecorder(4)
	pkt := &packet.Packet{Type: packet.TypeCSIC, ID: 9, Src: 1, Dst: 2}
	r.ControlTransmitted(pkt, 5, time.Second)
	r.ControlDropped(pkt, 6, 2*time.Second)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Kind != KindControl || evs[0].Node != 5 || evs[0].PacketID != 9 {
		t.Fatalf("transmit event = %+v", evs[0])
	}
	if evs[1].Kind != KindControlLost || evs[1].Node != 6 || evs[1].At != 2*time.Second {
		t.Fatalf("lost event = %+v", evs[1])
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		At: 1500 * time.Millisecond, Kind: KindDropped, Node: 3,
		PacketType: packet.TypeData, Src: 1, Dst: 2, Detail: "expired",
	}
	s := e.String()
	for _, want := range []string{"DRP", "node=3", "DATA", "1→2", "expired"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestEventStringWithoutDetail(t *testing.T) {
	e := Event{At: time.Second, Kind: KindControl, Node: 7, PacketType: packet.TypeRREQ, Src: 7, Dst: 9}
	s := e.String()
	if strings.Contains(s, "(") {
		t.Fatalf("detail-less String() = %q should carry no parenthetical", s)
	}
	for _, want := range []string{"CTL", "node=7", "7→9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindGenerated:   "GEN",
		KindDelivered:   "DLV",
		KindDropped:     "DRP",
		KindControl:     "CTL",
		KindControlLost: "CTL-LOST",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String() = %q, want Kind(99)", got)
	}
}
