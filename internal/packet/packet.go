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
	"sync"
	"sync/atomic"
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

	// pooled and refs implement the reuse protocol below; they ride along
	// at the end of the struct and are never copied by CopyFrom.
	pooled bool
	refs   int32
}

// Packet reuse. The broadcast fan-out in the MAC layer hands every
// receiver its own mutable copy of the on-air packet; at fifty terminals
// that is the single largest allocation source in a run. Packets therefore
// come from a pool with a small reference-count protocol:
//
//   - Get returns a zeroed pooled packet holding one reference.
//   - Clone returns a pooled copy of any packet, holding one reference.
//   - Release drops a reference; at zero the packet returns to the pool.
//   - Retain adds a reference — a control handler that wants to keep the
//     packet it was handed beyond the call must Retain (or Clone) it,
//     because the MAC layer Releases delivery copies as soon as the
//     handler returns.
//
// Packets built with a plain composite literal are not pooled: Retain and
// Release are no-ops on them, so tests and cold paths keep ordinary GC
// semantics, and a pooled packet that is never Released is simply
// collected. Only explicitly Released packets are ever reused.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Pool accounting. The pool is process-global (parallel batch cells and
// experiment trials share it), so these are process-global atomics: Gets
// and Releases count checkout/checkin, live is their difference, and
// highWater tracks the peak of live. A sequential run that drains cleanly
// ends with Live() == 0; anything else is a leak — a pooled packet whose
// last reference was never Released.
var (
	poolGets     atomic.Uint64
	poolReleases atomic.Uint64
	poolLive     atomic.Int64
	poolHigh     atomic.Int64
)

// Get returns a zeroed packet from the pool holding one reference.
// Every packet in the pool is already zeroed — Release clears before
// Put, and the pool's New starts zero — so only the header is written.
func Get() *Packet {
	p := pool.Get().(*Packet)
	p.pooled = true
	p.refs = 1
	poolGets.Add(1)
	if live := poolLive.Add(1); live > poolHigh.Load() {
		// Benign race between parallel runs: a concurrent peak may be
		// recorded slightly low, never high. The sequential paths that
		// assert on it are exact.
		poolHigh.Store(live)
	}
	return p
}

// Live reports how many pooled packets are currently checked out
// (Get/Clone minus final Release), process-wide.
func Live() int64 { return poolLive.Load() }

// PoolStats reports the process-global pool accounting: total checkouts,
// total checkins (final releases), currently live, and the high-water
// mark of live.
func PoolStats() (gets, releases uint64, live, highWater int64) {
	return poolGets.Load(), poolReleases.Load(), poolLive.Load(), poolHigh.Load()
}

// CopyFrom overwrites p's packet fields with src's, preserving p's own
// pool membership and reference count.
func (p *Packet) CopyFrom(src *Packet) {
	pooled, refs := p.pooled, p.refs
	*p = *src
	p.pooled, p.refs = pooled, refs
}

// Retain adds a reference to a pooled packet; no-op otherwise.
func (p *Packet) Retain() {
	if p.pooled {
		p.refs++
	}
}

// Release drops a reference; the last one returns the packet to the pool.
// Releasing a non-pooled packet is a no-op; releasing a pooled packet more
// often than it was retained panics, because the slot may already belong
// to another owner.
func (p *Packet) Release() {
	if !p.pooled {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic("packet: Release of an already-freed packet")
	}
	poolReleases.Add(1)
	poolLive.Add(-1)
	*p = Packet{}
	pool.Put(p)
}

// Sole reports whether the caller's reference is the only one on this
// pooled packet — i.e. nobody Retained it. The MAC delivery loop uses it
// to keep its working copy as a private scratch instead of cycling it
// through the shared pool.
func (p *Packet) Sole() bool { return p.pooled && p.refs == 1 }

// Clone returns a shallow copy; rebroadcast paths copy the packet so each
// hop can edit TTL/HopCount without aliasing the original. Payload is
// shared — protocols treat payloads as immutable once attached. The copy
// is pooled (one reference): callers that hand it to the MAC layer get
// automatic reuse, and callers that drop it leave it to the collector.
func (p *Packet) Clone() *Packet {
	q := Get()
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
