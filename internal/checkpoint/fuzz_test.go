package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzRead throws arbitrary bytes at the snapshot reader: it must never
// panic, never allocate from a forged length field more than a small
// multiple of the bytes it was given (measured per input, the way
// BenchmarkCheckpointCapture measures a capture), and — when it does
// accept an input — hand back sections that re-encode into a snapshot it
// accepts again (read/write/read fixpoint). Truncations,
// bit flips, and version-skewed magics in the corpus must all fail with
// a clean error.
func FuzzRead(f *testing.F) {
	valid := func() []byte {
		var buf bytes.Buffer
		err := Write(&buf, []Section{
			{Tag: "DESC", Payload: []byte(`{"protocol":"RICA","horizon_ns":10}`)},
			{Tag: "KERN", Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Tag: "EMPT", Payload: nil},
		})
		if err != nil {
			f.Fatalf("Write: %v", err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                         // truncated
	f.Add(append([]byte(nil), valid[:len(valid)-1]...)) // missing last byte
	// Version-skewed magics: the previous and the next version.
	for _, magic := range []string{"RICACKP6", "RICACKP8"} {
		f.Add(append([]byte(magic), valid[len(Magic):]...))
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip) // bit-flipped
	f.Add([]byte(Magic))
	f.Add([]byte{})
	// Twenty bytes claiming the largest section the reader admits, over no
	// body at all.
	hostile := append([]byte(Magic), "HUGE"...)
	f.Add(binary.LittleEndian.AppendUint32(hostile, MaxSectionLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		secs, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(data)) {
			t.Fatalf("Read of %d bytes allocated %d KB: a length field is being trusted before its bytes arrive", len(data), grew>>10)
		}
		if err != nil {
			return // rejection is fine; panicking is not
		}
		// Accepted input: the decoded sections must survive a
		// write/read round trip unchanged.
		var buf bytes.Buffer
		if err := Write(&buf, secs); err != nil {
			t.Fatalf("re-Write of accepted sections: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-Read of re-written snapshot: %v", err)
		}
		if len(again) != len(secs) {
			t.Fatalf("round trip changed section count: %d -> %d", len(secs), len(again))
		}
		for i := range secs {
			if again[i].Tag != secs[i].Tag || !bytes.Equal(again[i].Payload, secs[i].Payload) {
				t.Fatalf("round trip changed section %d", i)
			}
		}
		// The descriptor decoder must also stay panic-free on whatever
		// the container accepted.
		_, _ = DecodeDescriptor(Find(secs, TagDesc))
	})
}
