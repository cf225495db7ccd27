package channel_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"rica/internal/checkpoint"
	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// TestExtraDrawMovesRNGS damages a run the way a determinism bug would —
// inside the simulator, not in a snapshot's bytes — and reads what the
// eight section digests make of it. Three worlds of one recipe run to one
// instant. One value drawn from one fading link's stream and thrown away
// moves RNGS and nothing else: the section counts draws, and no other
// section can see a value nobody used. The same link answering one extra
// class query draws and consumes: RNGS moves with the count and LINK with
// the advanced fading state, and the other six stay.
func TestExtraDrawMovesRNGS(t *testing.T) {
	const at = 3 * time.Second
	build := func() *world.World {
		spec, err := scenario.ByName("paper-baseline")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Duration = at + time.Second
		w := world.New(cfg, protocol.Factory(protocol.RICA, spec.Traffic.Rate))
		w.Start()
		w.RunTo(at)
		return w
	}
	digests := func(w *world.World) []checkpoint.Section {
		secs, err := w.CaptureDigests()
		if err != nil {
			t.Fatalf("CaptureDigests: %v", err)
		}
		return secs
	}
	moved := func(a, b []checkpoint.Section) (tags []string) {
		for i := range a {
			if !bytes.Equal(a[i].Payload, b[i].Payload) {
				tags = append(tags, a[i].Tag)
			}
		}
		return tags
	}

	plain, discarded, consumed := build(), build(), build()
	// A link every world has, last advanced before the capture instant so
	// a query at the instant has an interval to advance over, read off
	// LINK: a link count, then per link its pair index and seven state
	// words, the advance clock first.
	payloads, err := plain.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	idx := -1
	for rec := checkpoint.Find(payloads, checkpoint.TagLink)[8:]; idx < 0 && len(rec) > 0; rec = rec[64:] {
		if last := time.Duration(binary.LittleEndian.Uint64(rec[8:])); last < at {
			idx = int(binary.LittleEndian.Uint64(rec))
		}
	}
	if idx < 0 {
		t.Fatal("no link last advanced before the capture instant")
	}
	want := digests(plain)
	if got := moved(want, digests(discarded)); got != nil {
		t.Fatalf("two worlds of one recipe differ in %v before any damage", got)
	}

	discarded.Model.LinkAtIndex(idx).Stream().Int63()
	if got := moved(want, digests(discarded)); len(got) != 1 || got[0] != checkpoint.TagRNGs {
		t.Errorf("one value drawn from link %d's stream and discarded moved %v, want exactly [%s]", idx, got, checkpoint.TagRNGs)
	}

	consumed.Model.LinkAtIndex(idx).ClassAt(100, 10, at)
	if got := moved(want, digests(consumed)); len(got) != 2 || got[0] != checkpoint.TagRNGs || got[1] != checkpoint.TagLink {
		t.Errorf("one extra class query on link %d moved %v, want exactly [%s %s]", idx, got, checkpoint.TagRNGs, checkpoint.TagLink)
	}
}
