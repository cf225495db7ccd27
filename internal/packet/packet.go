// Package packet defines the packet taxonomy shared by the MAC, network
// and routing layers: data and acknowledgment packets on the CDMA data
// channels, and the routing/control packets that ride the common channel
// (RREQ, RREP, CSI-checking, RUPD, REER, local queries, beacons, LSAs).
//
// Packets are plain in-memory structs — this is a simulator, so there is
// no wire encoding — but every type carries the byte size it would occupy
// on air, because the paper's routing-overhead metric (Figure 4) counts
// transmitted routing bits.
package packet

import (
	"fmt"
	"math"
	"time"
)

// Type discriminates packets. The zero value is invalid so that a
// forgotten initialization fails loudly.
type Type int

// Packet types. Data and Ack use CDMA data channels; everything else is a
// routing packet on the common channel.
const (
	TypeInvalid Type = iota
	TypeData         // application payload, store-and-forward
	TypeAck          // per-hop data acknowledgment (PN(B,A) code)
	TypeRREQ         // route request flood
	TypeRREP         // route reply, unicast along reverse path
	TypeCSIC         // RICA CSI-checking packet, TTL-scoped broadcast
	TypeRUPD         // RICA route update from the source
	TypeREER         // route error, unicast upstream
	TypeLQ           // localized query (ABR local repair, BGCA partial reroute)
	TypeLREP         // localized query reply
	TypeBeacon       // ABR associativity beacon
	TypeLSA          // link-state advertisement flood
	TypeJam          // adversarial noise burst on the common channel
)

var typeNames = map[Type]string{
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
	TypeJam:    "JAM",
}

// String returns the conventional short name of the type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// IsRouting reports whether the type is a routing/control packet, i.e.
// whether its bits count toward the paper's routing-overhead metric when
// transmitted on the common channel. Data ACKs also count toward overhead
// (paper §III.A) but travel on data channels; callers account them there.
func (t Type) IsRouting() bool {
	switch t {
	case TypeRREQ, TypeRREP, TypeCSIC, TypeRUPD, TypeREER, TypeLQ, TypeLREP, TypeBeacon, TypeLSA:
		return true
	default:
		return false
	}
}

// Broadcast is the To value of a link-level broadcast.
const Broadcast = -1

// Default on-air sizes in bytes, patterned after the corresponding IETF
// MANET packet formats (AODV RFC 3561 sizes for RREQ/RREP/RERR; small
// fixed beacons). The data payload size is the paper's 512 bytes.
const (
	SizeData     = 512
	SizeAck      = 8
	SizeRREQ     = 24
	SizeRREP     = 20
	SizeCSIC     = 20
	SizeRUPD     = 16
	SizeREER     = 16
	SizeLQ       = 24
	SizeLREP     = 20
	SizeBeacon   = 12
	SizeLSABase  = 24 // LSA header; add SizeLSAEntry per advertised link
	SizeLSAEntry = 8
	// SizeJam is the default on-air size of an adversarial noise burst:
	// 128 bytes ≈ 4 ms of carrier on the 250 kbps common channel, long
	// enough to destroy any control packet it overlaps.
	SizeJam = 128
)

// SizeOf reports the default on-air size for a packet type. LSA sizes
// depend on the entry count; use LSASize for those.
func SizeOf(t Type) int {
	switch t {
	case TypeData:
		return SizeData
	case TypeAck:
		return SizeAck
	case TypeRREQ:
		return SizeRREQ
	case TypeRREP:
		return SizeRREP
	case TypeCSIC:
		return SizeCSIC
	case TypeRUPD:
		return SizeRUPD
	case TypeREER:
		return SizeREER
	case TypeLQ:
		return SizeLQ
	case TypeLREP:
		return SizeLREP
	case TypeBeacon:
		return SizeBeacon
	case TypeLSA:
		return SizeLSABase
	case TypeJam:
		return SizeJam
	default:
		panic(fmt.Sprintf("packet: SizeOf(%v)", t))
	}
}

// LSASize reports the on-air size of an LSA advertising n links.
func LSASize(entries int) int { return SizeLSABase + SizeLSAEntry*entries }

// Packet is the unit of transmission at every layer. Fields divide into
// identity (Type, ID), end-to-end addressing (Src, Dst), link-level
// addressing (From, To), protocol state (BroadcastID, TTL, HopCount,
// GeoHops, Via), and measurement bookkeeping (CreatedAt, Traversed*).
type Packet struct {
	Type Type
	// ID is unique per simulation run; it identifies a packet across hops
	// for duplicate suppression and metrics tracing.
	ID uint64
	// Src and Dst are the end-to-end endpoints (flow source/destination for
	// data; protocol roles for control packets, e.g. a CSIC's Src is the
	// data source being served even though the packet originates at Dst).
	Src, Dst int
	// From and To are per-hop: sender and intended receiver of this
	// transmission. To == Broadcast for floods.
	From, To int
	// Size is the on-air size in bytes.
	Size int
	// CreatedAt is the generation time of the end-to-end packet (data) or
	// of the control exchange; end-to-end delay = delivery − CreatedAt.
	CreatedAt time.Duration

	// BroadcastID identifies a flood instance: (Origin of flood, Dst,
	// BroadcastID) dedupe rebroadcasts. Each new flood increments it.
	BroadcastID uint32
	// TTL bounds flood scope in geographic hops; ≤ 0 means unlimited for
	// full floods. Decremented per rebroadcast.
	TTL int
	// HopCount accumulates the CSI-based hop distance (RICA/BGCA floods)
	// or plain hop count (AODV), per the originating protocol.
	HopCount float64
	// GeoHops counts geographic (per-transmission) hops taken so far.
	GeoHops int
	// Via names the terminal a rebroadcast CSIC was received from, so the
	// overhearing downstream terminal can learn its possible upstream
	// (paper §II.C). Also used by REER for the reporting terminal's ID.
	Via int

	// TraversedHops, TraversedBps and TraversedCSI accumulate, for
	// delivered data packets, the geographic hop count, the sum of per-hop
	// class throughputs, and the sum of per-hop CSI hop distances (the
	// paper's "hop" unit); figures 5(a)/5(b) average these.
	TraversedHops int
	TraversedBps  float64
	TraversedCSI  float64

	// Payload carries protocol-specific content (e.g. LSA link lists).
	Payload any

	// arena and live implement the reuse protocol below; they ride along
	// at the end of the struct and are never copied by CopyFrom.
	arena *Arena
	live  bool
}

// Packet reuse. The broadcast fan-out in the MAC layer hands every
// receiver its own mutable copy of the on-air packet; at fifty terminals
// that is the single largest allocation source in a run. Packets are
// therefore recycled through an Arena, one per world, shaped like the
// kernel's event pool (DESIGN.md §8): a free list that only the world's
// own goroutine touches (network.Env's contract), so worlds running side
// by side share nothing.
//
//   - Arena.Get returns a zeroed packet the arena owns.
//   - Clone returns a copy of any packet, drawn from that packet's arena.
//   - Release returns an owned packet to its arena and poisons it.
//
// Ownership is a bit, not a count: whoever holds a packet when its path
// ends Releases it once, and a handler that wants to keep the packet it
// was handed beyond the call must Clone it, because the MAC layer reuses
// delivery copies as soon as the handler returns.
//
// Packets built with a plain composite literal, by the package-level Get
// or by a nil *Arena belong to no arena: Release is a no-op on them and
// their Clones are ordinary allocations, so tests and fakes keep GC
// semantics without wiring anything.
type Arena struct {
	free []*Packet
	live int
}

// NewArena returns an empty arena. A world builds exactly one.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed packet owned by a. On a nil arena it is a plain
// allocation nobody owns (the nil-receiver idiom of obs.Registry).
func (a *Arena) Get() *Packet {
	if a == nil {
		return new(Packet)
	}
	var p *Packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free = a.free[:n-1]
		*p = Packet{} // wipe the poison
	} else {
		p = new(Packet)
	}
	p.arena, p.live = a, true
	a.live++
	return p
}

// Live reports how many of a's packets are checked out (Get and Clone
// minus Release). A world that drained cleanly ends at zero; anything
// else is a leak — invariant.CheckSummary's zero-leak law.
func (a *Arena) Live() int { return a.live }

// Get returns a zeroed packet that belongs to no arena: the constructor
// for code with no world behind it.
func Get() *Packet { return new(Packet) }

// poison is what a released record holds until the arena re-issues it:
// no field reads as anything a live packet can carry, so a reader
// holding a stale pointer indexes out of range or drags NaN into the
// run's fingerprint on every run, not only when the slot happens to have
// been handed out again.
var poison = Packet{
	Type: -1,
	ID:   math.MaxUint64 - 1,
	Src:  -2, Dst: -2, From: -2, To: -2, Via: -2,
	Size:        -1,
	CreatedAt:   -1,
	BroadcastID: math.MaxUint32 - 1,
	TTL:         math.MinInt,
	HopCount:    math.NaN(),
	GeoHops:     -1,

	TraversedHops: -1,
	TraversedBps:  math.NaN(),
	TraversedCSI:  math.NaN(),
}

// CopyFrom overwrites p's packet fields with src's, preserving p's own
// ownership.
func (p *Packet) CopyFrom(src *Packet) {
	arena, live := p.arena, p.live
	*p = *src
	p.arena, p.live = arena, live
}

// Release returns the packet to its arena, poisoned; the caller must not
// touch it afterwards. Releasing a packet no arena owns is a no-op;
// releasing an owned packet twice panics, because by the time the second
// Release runs the record may belong to someone else.
func (p *Packet) Release() {
	a := p.arena
	if a == nil {
		return
	}
	if !p.live {
		panic("packet: Release of an already-released packet")
	}
	*p = poison
	p.arena = a
	a.live--
	a.free = append(a.free, p)
}

// Clone returns a shallow copy; rebroadcast paths copy the packet so each
// hop can edit TTL/HopCount without aliasing the original. Payload is
// shared — protocols treat payloads as immutable once attached. The copy
// comes from p's own arena, so it is recycled when the MAC layer is done
// with it; the clone of an unowned packet is unowned.
func (p *Packet) Clone() *Packet {
	q := p.arena.Get()
	q.CopyFrom(p)
	return q
}

// FloodKey identifies a flood instance for duplicate suppression tables.
// Fields are deliberately narrow — terminal ids fit int32, the kind fits
// a byte — so the whole key is 16 bytes: these keys are hashed and
// compared once per received flood copy, and halving the key halves that
// work. Build keys with Packet.Key or MakeFloodKey.
type FloodKey struct {
	Origin      int32
	Dst         int32
	BroadcastID uint32
	Kind        uint8
}

// Type reports the flood's packet kind as a packet.Type.
func (k FloodKey) Type() Type { return Type(k.Kind) }

// MakeFloodKey assembles a flood key from full-width components (reverse
// lookups that reconstruct a key from packet fields use it).
func MakeFloodKey(origin, dst int, broadcastID uint32, kind Type) FloodKey {
	return FloodKey{Origin: int32(origin), Dst: int32(dst), BroadcastID: broadcastID, Kind: uint8(kind)}
}

// Key builds the duplicate-suppression key for flood packets. Origin is
// taken from Src for source-originated floods (RREQ, LQ, LSA) and Dst for
// destination-originated ones (CSIC); the packet type disambiguates.
func (p *Packet) Key() FloodKey {
	origin := p.Src
	if p.Type == TypeCSIC {
		origin = p.Dst
	}
	return MakeFloodKey(origin, p.Dst, p.BroadcastID, p.Type)
}
