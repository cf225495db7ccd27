package packet

import (
	"testing"
	"time"
)

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{
		TypeData:   "DATA",
		TypeAck:    "ACK",
		TypeRREQ:   "RREQ",
		TypeRREP:   "RREP",
		TypeCSIC:   "CSIC",
		TypeRUPD:   "RUPD",
		TypeREER:   "REER",
		TypeLQ:     "LQ",
		TypeLREP:   "LREP",
		TypeBeacon: "BEACON",
		TypeLSA:    "LSA",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(ty), got, want)
		}
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type String = %q", got)
	}
}

func TestIsRoutingPartition(t *testing.T) {
	routing := []Type{TypeRREQ, TypeRREP, TypeCSIC, TypeRUPD, TypeREER, TypeLQ, TypeLREP, TypeBeacon, TypeLSA}
	for _, ty := range routing {
		if !ty.IsRouting() {
			t.Errorf("%v.IsRouting() = false, want true", ty)
		}
	}
	for _, ty := range []Type{TypeData, TypeAck, TypeInvalid} {
		if ty.IsRouting() {
			t.Errorf("%v.IsRouting() = true, want false", ty)
		}
	}
}

func TestSizeOfCoversAllValidTypes(t *testing.T) {
	for _, ty := range []Type{TypeData, TypeAck, TypeRREQ, TypeRREP, TypeCSIC, TypeRUPD, TypeREER, TypeLQ, TypeLREP, TypeBeacon, TypeLSA} {
		if s := SizeOf(ty); s <= 0 {
			t.Errorf("SizeOf(%v) = %d, want positive", ty, s)
		}
	}
	if SizeOf(TypeData) != 512 {
		t.Errorf("data packet size = %d, want the paper's 512 bytes", SizeOf(TypeData))
	}
}

func TestSizeOfInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SizeOf(TypeInvalid) did not panic")
		}
	}()
	SizeOf(TypeInvalid)
}

func TestLSASize(t *testing.T) {
	if got := LSASize(0); got != SizeLSABase {
		t.Errorf("LSASize(0) = %d, want %d", got, SizeLSABase)
	}
	if got := LSASize(5); got != SizeLSABase+5*SizeLSAEntry {
		t.Errorf("LSASize(5) = %d", got)
	}
}

func TestCloneIsIndependentShallowCopy(t *testing.T) {
	p := &Packet{
		Type: TypeRREQ, ID: 7, Src: 1, Dst: 2, From: 3, To: Broadcast,
		Size: SizeRREQ, CreatedAt: time.Second, BroadcastID: 4, TTL: 5,
		HopCount: 3.33, GeoHops: 2,
	}
	q := p.Clone()
	if q.arena != nil || *q != *p {
		t.Fatal("the clone of an unowned packet must be an unowned, equal packet")
	}
	q.HopCount = 99
	q.TTL = 0
	if p.HopCount != 3.33 || p.TTL != 5 {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestFloodKeyDistinguishesDirections(t *testing.T) {
	rreq := &Packet{Type: TypeRREQ, Src: 1, Dst: 2, BroadcastID: 9}
	csic := &Packet{Type: TypeCSIC, Src: 1, Dst: 2, BroadcastID: 9}
	if rreq.Key() == csic.Key() {
		t.Fatal("RREQ and CSIC floods with equal ids must have distinct keys")
	}
	if rreq.Key().Origin != 1 {
		t.Errorf("RREQ flood origin = %d, want Src 1", rreq.Key().Origin)
	}
	if csic.Key().Origin != 2 {
		t.Errorf("CSIC flood origin = %d, want Dst 2 (receiver-initiated)", csic.Key().Origin)
	}
}

func TestFloodKeyDedupesRebroadcasts(t *testing.T) {
	orig := &Packet{Type: TypeRREQ, Src: 1, Dst: 2, BroadcastID: 3, From: 1, TTL: 8, HopCount: 0}
	hop := orig.Clone()
	hop.From = 5
	hop.TTL = 7
	hop.HopCount = 1.67
	hop.GeoHops = 1
	if orig.Key() != hop.Key() {
		t.Fatal("rebroadcast changed the flood key; duplicate suppression would fail")
	}
	next := &Packet{Type: TypeRREQ, Src: 1, Dst: 2, BroadcastID: 4}
	if orig.Key() == next.Key() {
		t.Fatal("new broadcast id must produce a new key")
	}
}

func TestPoolRoundTripAndCopyFrom(t *testing.T) {
	a := NewArena()
	p := a.Get()
	if p.arena != a || !p.live || a.Live() != 1 {
		t.Fatalf("Get() = (arena %p, live %v), arena live %d; want an owned, live packet", p.arena, p.live, a.Live())
	}
	src := &Packet{Type: TypeRREQ, ID: 9, Src: 1, Dst: 2, HopCount: 1.5}
	p.CopyFrom(src)
	if p.Type != TypeRREQ || p.ID != 9 || p.HopCount != 1.5 {
		t.Fatal("CopyFrom did not copy packet fields")
	}
	if p.arena != a || !p.live {
		t.Fatal("CopyFrom clobbered ownership")
	}
	q := p.Clone()
	if q.arena != a || a.Live() != 2 {
		t.Fatal("Clone must draw from the source packet's arena")
	}
	q.Release()
	p.Release()
	if a.Live() != 0 {
		t.Fatalf("arena live = %d after every Release, want 0", a.Live())
	}
	if r := a.Get(); r != p || *r != (Packet{arena: a, live: true}) {
		t.Fatal("Get must re-issue the last released record, zeroed")
	}
}

func TestReleaseNonPooledIsNoOp(t *testing.T) {
	for _, p := range []*Packet{{Type: TypeData}, Get(), (*Arena)(nil).Get()} {
		p.Type = TypeData
		p.Release()
		p.Release() // must not panic: unowned packets keep GC semantics
		if p.Type != TypeData {
			t.Fatal("Release touched a packet no arena owns")
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	// A second Release would hand the same record to two owners; the
	// released state survives the poison, so the arena refuses loudly.
	p := NewArena().Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	p.Release()
}

// TestUseAfterReleaseIsLoud pins the poison: no scalar of a released
// record reads as a value a live packet can carry, so a stale reader
// panics on an index or drags the value into the run's fingerprint.
func TestUseAfterReleaseIsLoud(t *testing.T) {
	p := NewArena().Get()
	p.CopyFrom(&Packet{Type: TypeData, ID: 7, Src: 1, Dst: 2, From: 1, To: 3, Size: SizeData,
		CreatedAt: time.Second, BroadcastID: 4, TTL: 5, HopCount: 1, GeoHops: 1, Via: 1,
		TraversedHops: 1, TraversedBps: 1, TraversedCSI: 1, Payload: "x"})
	p.Release()

	if _, ok := typeNames[p.Type]; ok || p.Type == TypeInvalid {
		t.Errorf("released Type = %v, want outside the taxonomy", p.Type)
	}
	for name, id := range map[string]int{"Src": p.Src, "Dst": p.Dst, "From": p.From, "To": p.To, "Via": p.Via} {
		if id >= Broadcast {
			t.Errorf("released %s = %d, want below every terminal id and Broadcast", name, id)
		}
	}
	for name, v := range map[string]int{"Size": p.Size, "GeoHops": p.GeoHops,
		"TraversedHops": p.TraversedHops, "CreatedAt": int(p.CreatedAt)} {
		if v >= 0 {
			t.Errorf("released %s = %d, want negative", name, v)
		}
	}
	if p.ID < 1<<63 || p.BroadcastID < 1<<31 || p.TTL > -1<<31 {
		t.Errorf("released ID/BroadcastID/TTL = %d/%d/%d, want beyond any counter a run reaches", p.ID, p.BroadcastID, p.TTL)
	}
	for name, f := range map[string]float64{"HopCount": p.HopCount, "TraversedBps": p.TraversedBps, "TraversedCSI": p.TraversedCSI} {
		if f == f {
			t.Errorf("released %s = %v, want NaN", name, f)
		}
	}
	if p.Payload != nil {
		t.Error("a released record must drop its payload reference")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SizeOf of a released packet's type did not panic")
		}
	}()
	SizeOf(p.Type)
}

// TestArenasShareNothing: a record released into one arena is never
// handed out by another — worlds running side by side cannot alias.
func TestArenasShareNothing(t *testing.T) {
	a, b := NewArena(), NewArena()
	mine := make(map[*Packet]bool)
	for i := 0; i < 64; i++ {
		mine[a.Get()] = true
	}
	for p := range mine {
		p.Release()
	}
	for i := 0; i < 256; i++ {
		if p := b.Get(); mine[p] {
			t.Fatal("arena B handed out a record released into arena A")
		}
	}
	if a.Live() != 0 || b.Live() != 256 {
		t.Fatalf("live = (%d, %d), want (0, 256): the counts are per arena", a.Live(), b.Live())
	}
}

// BenchmarkArenaGetRelease is the recycler at steady state: one record
// going round the free list, zeroed on the way out and poisoned on the
// way in. An allocation here is one per packet of a run.
func BenchmarkArenaGetRelease(b *testing.B) {
	a := NewArena()
	a.Get().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Get().Release()
	}
}
