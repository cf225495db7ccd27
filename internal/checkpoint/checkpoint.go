// Package checkpoint defines the on-disk snapshot format for
// checkpoint/resume: a versioned, self-describing container of tagged
// binary sections, each integrity-checked with a CRC, closed by a tail
// record protecting the whole file.
//
// The container is deliberately dumb: it knows nothing about
// simulations, and guarantees only that what was written is what is
// read — a truncated, bit-flipped, or version-skewed file fails with a
// clean error, never a panic and never a silent partial read.
//
// What a snapshot holds is decided here too. Resume only ever compares
// a fresh capture against the stored one, so a snapshot keeps the run
// recipe (DESC, which carries the capture instant) verbatim and one
// fixed-width hash per state section: the same verification power — a
// divergence still names its section — in under a kilobyte instead of
// megabytes. The payloads those hashes stand for are never built on the
// snapshot path: the world layer's encoders write through an Enc in
// digest mode, which hashes the values as they stream (see
// world.World.CaptureDigests). The same encoders over an accumulating
// Enc return the full payloads (world.World.CaptureState) for diffing a
// divergence by hand, and Digest maps one form to the other.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "RICACKP7"            format name + version
//	section: tag [4]byte | len uint32 | payload [len]byte | crc32 uint32
//	...                                    (one or more sections)
//	tail:    tag "TAIL" | len 8 | count uint32, filecrc uint32 | crc32
//
// The per-section CRC (IEEE) covers the payload; the tail's filecrc
// covers every byte from the magic through the last ordinary section's
// CRC, so reordering, dropping, or duplicating whole (individually
// valid) sections is also detected. Unknown tags are preserved and
// skipped by readers — a newer writer may add sections without breaking
// an older reader's ability to reject or inspect the file. The magic
// string carries the format version: any incompatible change to the
// container or to what a section holds bumps the trailing digit
// ("RICACKP7" to "RICACKP8"), and old readers reject new files outright
// (and vice versa) instead of mis-verifying.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Magic identifies the container format and its version.
const Magic = "RICACKP7"

// tailTag closes every file; it is not a user section.
const tailTag = "TAIL"

// Section tags. DESC is the run recipe, stored verbatim and exempt from
// verification; the other eight are the world capture's state sections,
// stored as digests that the resume path compares a fresh capture's
// against.
const (
	TagDesc = "DESC" // JSON run descriptor (see Descriptor)
	TagKern = "KERN" // kernel clock, sequence counter, live-event skeleton
	TagRNGs = "RNGS" // every RNG stream's (id, draws since seeding), creation order
	TagMobi = "MOBI" // per-terminal waypoint leg state
	TagLink = "LINK" // per-pair fading link state, triangular index order
	TagMACs = "MACS" // common-channel transmissions + data-plane exchanges
	TagNode = "NODE" // per-terminal link-queue skeletons
	TagTraf = "TRAF" // traffic generator and gossip workload state
	TagObsC = "OBSC" // observability counter snapshot (JSON)
)

// Limits a strict reader enforces before trusting any length field.
const (
	// MaxSectionLen bounds one payload. A snapshot's own sections are a
	// recipe and digests, but the container also frames full captures,
	// whose largest section over the catalog is metro-500's LINK at its
	// horizon, 516 KB; 16 MB is 32× that and twice what LINK would be had
	// every pair of 500 terminals met. Read allocates as bytes arrive, so
	// the bound limits what a well-formed file may hold, not what a forged
	// header costs.
	MaxSectionLen = 1 << 24
	// maxSections bounds the section count; the writer emits 9.
	maxSections = 256
)

// Section is one tagged payload.
type Section struct {
	Tag     string
	Payload []byte
}

// ErrCorrupt wraps every integrity failure, so callers can distinguish
// "the file is damaged" from I/O errors with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Write emits the sections to w in order, framed and checksummed, and
// closed with the tail record. Tags must be exactly 4 bytes.
func Write(w io.Writer, sections []Section) error {
	crc := crc32.NewIEEE()
	out := io.MultiWriter(w, crc)
	if _, err := io.WriteString(out, Magic); err != nil {
		return err
	}
	for _, s := range sections {
		if len(s.Tag) != 4 {
			return fmt.Errorf("checkpoint: tag %q is not 4 bytes", s.Tag)
		}
		if s.Tag == tailTag {
			return fmt.Errorf("checkpoint: %q is reserved", tailTag)
		}
		if len(s.Payload) > MaxSectionLen {
			return fmt.Errorf("checkpoint: section %s exceeds %d bytes", s.Tag, MaxSectionLen)
		}
		if err := writeSection(out, s.Tag, s.Payload); err != nil {
			return err
		}
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], uint32(len(sections)))
	binary.LittleEndian.PutUint32(tail[4:], crc.Sum32())
	// The tail section goes to w only: its own CRC covers its payload,
	// and the filecrc inside it covers everything before it.
	return writeSection(w, tailTag, tail[:])
}

func writeSection(w io.Writer, tag string, payload []byte) error {
	var hdr [8]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(sum[:])
	return err
}

// Read parses a complete snapshot from r, verifying the magic, every
// section CRC, and the tail's whole-file CRC. The returned sections are
// in file order and exclude the tail. Any deviation — truncation, a
// flipped bit, a foreign magic, an oversized length — returns an error
// wrapping ErrCorrupt.
func Read(r io.Reader) ([]Section, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	var magic [8]byte
	if _, err := io.ReadFull(tr, magic[:]); err != nil {
		return nil, corruptf("short magic: %v", err)
	}
	if string(magic[:]) != Magic {
		return nil, corruptf("bad magic %q (want %q; incompatible version?)", magic[:], Magic)
	}
	var sections []Section
	for {
		fileCRC := crc.Sum32() // CRC of everything before this section
		var hdr [8]byte
		if _, err := io.ReadFull(tr, hdr[:]); err != nil {
			return nil, corruptf("short section header: %v", err)
		}
		tag := string(hdr[:4])
		n := binary.LittleEndian.Uint32(hdr[4:])
		if n > MaxSectionLen {
			return nil, corruptf("section %q claims %d bytes (max %d)", tag, n, MaxSectionLen)
		}
		// ReadAll grows its buffer with the bytes delivered, so a header
		// claiming more than the file holds fails having allocated little
		// more than the file gave it.
		payload, err := io.ReadAll(io.LimitReader(tr, int64(n)))
		if err == nil && len(payload) < int(n) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, corruptf("section %q truncated: %v", tag, err)
		}
		var sum [4]byte
		if _, err := io.ReadFull(tr, sum[:]); err != nil {
			return nil, corruptf("section %q missing checksum: %v", tag, err)
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(sum[:]); got != want {
			return nil, corruptf("section %q checksum mismatch", tag)
		}
		if tag == tailTag {
			if len(payload) != 8 {
				return nil, corruptf("tail payload is %d bytes, want 8", len(payload))
			}
			count := binary.LittleEndian.Uint32(payload[0:])
			want := binary.LittleEndian.Uint32(payload[4:])
			if int(count) != len(sections) {
				return nil, corruptf("tail records %d sections, file has %d", count, len(sections))
			}
			if fileCRC != want {
				return nil, corruptf("whole-file checksum mismatch")
			}
			// Nothing may follow the tail.
			var extra [1]byte
			if _, err := r.Read(extra[:]); err != io.EOF {
				return nil, corruptf("trailing data after tail")
			}
			return sections, nil
		}
		if len(sections) >= maxSections {
			return nil, corruptf("more than %d sections", maxSections)
		}
		sections = append(sections, Section{Tag: tag, Payload: payload})
	}
}

// Find returns the first section with the given tag, or nil.
func Find(sections []Section, tag string) []byte {
	for _, s := range sections {
		if s.Tag == tag {
			return s.Payload
		}
	}
	return nil
}

// Digest turns captured state payloads into what a snapshot stores: the
// same tags in the same order, each payload replaced by its SHA-256. The
// snapshot path computes the same digests without the payloads (a
// digest-mode Enc); this is the definition the tests hold it to.
func Digest(captured []Section) []Section {
	out := make([]Section, len(captured))
	for i, s := range captured {
		sum := sha256.Sum256(s.Payload)
		out[i] = Section{Tag: s.Tag, Payload: sum[:]}
	}
	return out
}

// Descriptor is the JSON run recipe embedded in every snapshot (the
// DESC section): everything needed to rebuild the identical world in a
// fresh process and replay it to the capture instant. Durations are
// nanoseconds so the JSON stays integer-exact.
type Descriptor struct {
	// AtNs is the virtual instant the state sections were captured at.
	AtNs int64 `json:"at_ns"`
	// HorizonNs is the run's full horizon; resume continues to it.
	HorizonNs int64 `json:"horizon_ns"`
	// Protocol names the routing protocol under test.
	Protocol string `json:"protocol"`
	// Seed and MaxDurationNs mirror the rica.ScenarioRun fields.
	Seed          int64 `json:"seed,omitempty"`
	MaxDurationNs int64 `json:"max_duration_ns,omitempty"`
	// Scenario is the validated scenario spec, verbatim.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// EncodeDescriptor renders d as the DESC payload.
func EncodeDescriptor(d Descriptor) ([]byte, error) { return json.Marshal(d) }

// DecodeDescriptor parses and sanity-checks a DESC payload.
func DecodeDescriptor(payload []byte) (Descriptor, error) {
	var d Descriptor
	if payload == nil {
		return d, corruptf("missing %s section", TagDesc)
	}
	if err := json.Unmarshal(payload, &d); err != nil {
		return d, corruptf("descriptor: %v", err)
	}
	if d.AtNs < 0 || d.HorizonNs < 0 || d.AtNs > d.HorizonNs {
		return d, corruptf("descriptor instant %dns outside horizon %dns", d.AtNs, d.HorizonNs)
	}
	if d.Protocol == "" {
		return d, corruptf("descriptor names no protocol")
	}
	return d, nil
}

// Enc is a little-endian append-only encoder for section payloads. All
// captures go through it so the encoded bytes are a pure function of the
// captured values — the resume path compares digests of them.
//
// It has two sinks behind the one set of append methods. The zero value
// accumulates each section's payload in memory. NewDigestEnc returns one
// that never holds a payload: appends fill a small fixed chunk that
// spills into a running SHA-256, so capturing costs one hash pass over
// the live state and no buffer proportional to it. Cut closes a section
// on either.
type Enc struct {
	buf []byte
	h   hash.Hash // digest mode when set: buf is the fixed chunk feeding it
	fed int       // bytes of closed sections and spilled chunks; see Fed
}

// digestChunk is the digest-mode chunk size: a multiple of SHA-256's
// 64-byte block, large enough that spills are rare next to appends.
const digestChunk = 4096

// NewDigestEnc returns an encoder whose Cut yields the SHA-256 of the
// section instead of its bytes.
func NewDigestEnc() *Enc {
	return &Enc{buf: make([]byte, 0, digestChunk), h: sha256.New()}
}

// Cut closes the current section and starts the next: it returns the
// accumulated payload, or in digest mode the payload's SHA-256 — what
// Digest would make of the payload the other sink returns.
func (e *Enc) Cut() []byte {
	if e.h == nil {
		p := e.buf
		e.buf = nil
		e.fed += len(p)
		return p
	}
	e.spill()
	sum := e.h.Sum(nil)
	e.h.Reset()
	return sum
}

// room makes the next n ≤ digestChunk appended bytes fit the digest
// chunk without growing it; the accumulating sink just grows.
func (e *Enc) room(n int) {
	if e.h != nil && len(e.buf)+n > cap(e.buf) {
		e.spill()
	}
}

func (e *Enc) spill() {
	e.h.Write(e.buf) // hash.Hash.Write never returns an error
	e.fed += len(e.buf)
	e.buf = e.buf[:0]
}

// Fed reports how many bytes the encoder has been fed over every section
// cut so far, on either sink: the size of what a capture hashes, which a
// test can hold to a budget where the digests alone would hide it.
func (e *Enc) Fed() int { return e.fed }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a uint64.
func (e *Enc) U64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Dur appends a time.Duration as nanoseconds.
func (e *Enc) Dur(v time.Duration) { e.I64(int64(v)) }

// F64 appends a float64 by bit pattern (exact, no formatting).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	e.room(1)
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Raw appends p verbatim (a section that is already bytes, such as the
// obs counters' JSON).
func (e *Enc) Raw(p []byte) {
	if e.h != nil {
		e.spill()
		e.h.Write(p)
		e.fed += len(p)
		return
	}
	e.buf = append(e.buf, p...)
}
