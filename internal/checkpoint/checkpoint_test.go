package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

func sampleSections() []Section {
	return []Section{
		{Tag: "DESC", Payload: []byte(`{"protocol":"RICA"}`)},
		{Tag: "KERN", Payload: []byte{1, 2, 3, 4, 5}},
		{Tag: "EMPT", Payload: nil}, // zero-length payloads are legal
		{Tag: "RNGS", Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
}

func mustWrite(t *testing.T, secs []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, secs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sampleSections()
	got, err := Read(bytes.NewReader(mustWrite(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Read returned %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Tag != want[i].Tag {
			t.Errorf("section %d tag = %q, want %q", i, got[i].Tag, want[i].Tag)
		}
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("section %d payload mismatch", i)
		}
	}
	if Find(got, "KERN") == nil || Find(got, "MISS") != nil {
		t.Error("Find misbehaved")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	snap := mustWrite(t, sampleSections())
	for n := 0; n < len(snap); n++ {
		if _, err := Read(bytes.NewReader(snap[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestReadRejectsBitFlips(t *testing.T) {
	snap := mustWrite(t, sampleSections())
	for i := range snap {
		for _, mask := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), snap...)
			bad[i] ^= mask
			if _, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flip of bit %02x in byte %d went undetected", mask, i)
			}
		}
	}
}

func TestReadRejectsVersionSkew(t *testing.T) {
	snap := mustWrite(t, sampleSections())
	for _, magic := range []string{"RICACKP7", "RICACKP9"} { // the previous and the next version
		skewed := append([]byte(magic), snap[len(Magic):]...)
		_, err := Read(bytes.NewReader(skewed))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version") {
			t.Fatalf("magic %s: err = %v, want ErrCorrupt mentioning version", magic, err)
		}
	}
}

func TestReadRejectsTrailingData(t *testing.T) {
	snap := append(mustWrite(t, sampleSections()), 0x00)
	if _, err := Read(bytes.NewReader(snap)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsOversizedLength(t *testing.T) {
	// Hand-craft a header claiming a payload larger than MaxSectionLen;
	// the reader must refuse it on the length alone.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var hdr [8]byte
	copy(hdr[:4], "HUGE")
	binary.LittleEndian.PutUint32(hdr[4:], MaxSectionLen+1)
	buf.Write(hdr[:])
	if _, err := Read(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

// TestReadLargeSections round-trips payloads many times the reader's
// first allocation, whose buffer grows as bytes arrive, and cuts the
// largest short: the growth path must deliver every byte or fail.
func TestReadLargeSections(t *testing.T) {
	var secs []Section
	for i, n := range []int{511, 512, 513, 300<<10 + 3} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(j*7 + i)
		}
		secs = append(secs, Section{Tag: "BIG" + string(rune('0'+i)), Payload: p})
	}
	snap := mustWrite(t, secs)
	got, err := Read(bytes.NewReader(snap))
	if err != nil || len(got) != len(secs) {
		t.Fatalf("Read: %d sections, err = %v", len(got), err)
	}
	for i := range secs {
		if got[i].Tag != secs[i].Tag || !bytes.Equal(got[i].Payload, secs[i].Payload) {
			t.Errorf("section %s (%d bytes) changed in the round trip", secs[i].Tag, len(secs[i].Payload))
		}
	}
	if _, err := Read(bytes.NewReader(snap[:len(snap)-100<<10])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("snapshot cut inside its last payload: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsDroppedSection(t *testing.T) {
	// Remove one individually-valid section from the middle: every
	// per-section CRC still passes, so only the tail's whole-file CRC
	// (and count) can catch it.
	secs := sampleSections()
	full := mustWrite(t, secs)
	one := mustWrite(t, secs[1:2]) // framing of the KERN section alone
	kern := one[len(Magic) : len(one)-(8+8+4)]
	idx := bytes.Index(full, kern)
	if idx < 0 {
		t.Fatal("could not locate KERN framing in full snapshot")
	}
	dropped := append(append([]byte(nil), full[:idx]...), full[idx+len(kern):]...)
	if _, err := Read(bytes.NewReader(dropped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dropped section: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsForgedTail(t *testing.T) {
	// A tail whose count and filecrc are self-consistent garbage but
	// whose own section CRC is fixed up: the whole-file CRC must differ.
	secs := sampleSections()
	full := mustWrite(t, secs)
	tailLen := 8 + 8 + 4
	body := full[:len(full)-tailLen]
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], uint32(len(secs)))
	binary.LittleEndian.PutUint32(tail[4:], 0xDEADBEEF) // wrong filecrc
	var buf bytes.Buffer
	buf.Write(body)
	var hdr [8]byte
	copy(hdr[:4], "TAIL")
	binary.LittleEndian.PutUint32(hdr[4:], 8)
	buf.Write(hdr[:])
	buf.Write(tail[:])
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(tail[:]))
	buf.Write(sum[:])
	if _, err := Read(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged tail: err = %v, want ErrCorrupt", err)
	}
}

func TestWriteRejectsBadTags(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Section{{Tag: "TOOLONG"}}); err == nil {
		t.Error("Write accepted a 7-byte tag")
	}
	if err := Write(&buf, []Section{{Tag: tailTag}}); err == nil {
		t.Error("Write accepted the reserved TAIL tag")
	}
}

// TestDigest: a snapshot's state sections are fixed-width whatever the
// capture's size, keep their tags and order, and differ when — and only
// when — the payloads do.
func TestDigest(t *testing.T) {
	captured := sampleSections()
	got := Digest(captured)
	if len(got) != len(captured) {
		t.Fatalf("Digest returned %d sections, want %d", len(got), len(captured))
	}
	for i, s := range got {
		if s.Tag != captured[i].Tag {
			t.Errorf("section %d tag = %q, want %q", i, s.Tag, captured[i].Tag)
		}
		if len(s.Payload) != 32 {
			t.Errorf("section %s digest is %d bytes, want 32", s.Tag, len(s.Payload))
		}
	}
	again := sampleSections()
	again[3].Payload[999] ^= 1
	for i, s := range Digest(again) {
		if same := bytes.Equal(s.Payload, got[i].Payload); same != (i != 3) {
			t.Errorf("section %s: digest equal = %v after altering only RNGS", s.Tag, same)
		}
	}
}

// TestEncSinksAgree drives both of Enc's sinks with the same appends —
// sections shorter than, equal to and several times the digest chunk,
// every width, byte-wide appends that leave the chunk misaligned — and
// requires the digest sink's Cut to be the SHA-256 of the payload sink's,
// section by section, with an empty section hashing as empty. Both sinks
// report having been fed the bytes the payload sink returned.
func TestEncSinksAgree(t *testing.T) {
	payload, digest := new(Enc), NewDigestEnc()
	fed := 0
	for _, words := range []int{0, 1, digestChunk/8 - 1, digestChunk / 8, 3*digestChunk/8 + 5, 0} {
		for _, e := range []*Enc{payload, digest} {
			for i := 0; i < words; i++ {
				e.I64(int64(i) * -7)
				e.Bool(i%3 == 0)
				e.U32(uint32(i))
				e.F64(float64(i) / 3)
				e.Dur(time.Duration(i))
				if i%100 == 0 {
					e.Raw(bytes.Repeat([]byte{byte(i)}, i))
				}
			}
		}
		p := payload.Cut()
		want := sha256.Sum256(p)
		if got := digest.Cut(); !bytes.Equal(got, want[:]) {
			t.Errorf("%d rounds (%d-byte payload): digest sink cut %x, SHA-256 of the payload is %x", words, len(p), got, want)
		}
		if fed += len(p); payload.Fed() != fed || digest.Fed() != fed {
			t.Errorf("%d rounds: payload sink reports %d bytes fed, digest sink %d, the payloads so far hold %d", words, payload.Fed(), digest.Fed(), fed)
		}
	}
}

func TestDescriptorValidation(t *testing.T) {
	good := Descriptor{AtNs: 5, HorizonNs: 10, Protocol: "RICA"}
	payload, err := EncodeDescriptor(good)
	if err != nil {
		t.Fatalf("EncodeDescriptor: %v", err)
	}
	if _, err := DecodeDescriptor(payload); err != nil {
		t.Fatalf("DecodeDescriptor(valid): %v", err)
	}
	bad := []Descriptor{
		{AtNs: 5, HorizonNs: 1, Protocol: "RICA"}, // instant past horizon
		{AtNs: -1, HorizonNs: 1, Protocol: "RICA"},
		{AtNs: 0, HorizonNs: 1}, // no protocol
	}
	for i, d := range bad {
		p, err := EncodeDescriptor(d)
		if err != nil {
			t.Fatalf("EncodeDescriptor(bad %d): %v", i, err)
		}
		if _, err := DecodeDescriptor(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bad descriptor %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	if _, err := DecodeDescriptor(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil descriptor: err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeDescriptor([]byte("{")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("malformed JSON: err = %v, want ErrCorrupt", err)
	}
}
