package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"
)

func sampleSections() []Section {
	return []Section{
		{Tag: "DESC", Payload: []byte(`{"kind":"sim"}`)},
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
	for _, magic := range []string{"RICACKP1", "RICACKP3"} { // the previous and the next version
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
	// the reader must refuse before allocating it.
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

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U32(7)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(12345)
	e.Dur(3 * time.Second)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	d := NewDec(e.Bytes())
	if v := d.U32(); v != 7 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != 12345 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Dur(); v != 3*time.Second {
		t.Errorf("Dur = %v", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 inf = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Errorf("decoder state: err=%v len=%d", d.Err(), d.Len())
	}
	// Over-read latches ErrCorrupt and yields zeros from then on.
	if v := d.U64(); v != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("over-read: v=%d err=%v", v, d.Err())
	}
	if v := d.Int(); v != 0 {
		t.Errorf("post-error read = %d, want 0", v)
	}
}

func TestDescriptorValidation(t *testing.T) {
	good := Descriptor{Kind: "scenario", AtNs: 5, HorizonNs: 10, Protocol: "RICA"}
	payload, err := EncodeDescriptor(good)
	if err != nil {
		t.Fatalf("EncodeDescriptor: %v", err)
	}
	if _, err := DecodeDescriptor(payload); err != nil {
		t.Fatalf("DecodeDescriptor(valid): %v", err)
	}
	bad := []Descriptor{
		{Kind: "mystery", AtNs: 0, HorizonNs: 1, Protocol: "RICA"},
		{Kind: "sim", AtNs: 5, HorizonNs: 1, Protocol: "RICA"}, // instant past horizon
		{Kind: "sim", AtNs: -1, HorizonNs: 1, Protocol: "RICA"},
		{Kind: "sim", AtNs: 0, HorizonNs: 1}, // no protocol
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
