package rica_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rica"
	"rica/internal/checkpoint"
	"rica/internal/obs"
	"rica/internal/protocol"
	"rica/internal/world"
)

// ckDuration truncates catalog horizons for the round-trip grid: long
// enough that every protocol has discovered routes, broken links, and
// dropped packets by the capture instant, short enough for CI.
const ckDuration = 6 * time.Second

func ckRun(t *testing.T, name string, p rica.Protocol) rica.ScenarioRun {
	t.Helper()
	spec, err := rica.ScenarioByName(name)
	if err != nil {
		t.Fatalf("ScenarioByName(%q): %v", name, err)
	}
	return rica.ScenarioRun{Scenario: spec, Protocol: p, MaxDuration: ckDuration}
}

// resumeFile resumes the snapshot file at path under options o.
func resumeFile(path string, o rica.RunOptions) (rica.Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return rica.Summary{}, err
	}
	defer f.Close()
	return rica.Resume(f, o)
}

// snapshotAt runs r to virtual time at — an instant boundary short of
// the horizon — and returns the snapshot of that instant: the one a
// checkpointed Run of r writes when its Stop ends it there.
func snapshotAt(dir string, r rica.ScenarioRun, at time.Duration) ([]byte, error) {
	path := filepath.Join(dir, "at.ckpt")
	if err := rica.SnapshotAt(r, path, at); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// mustSnapshotAt is snapshotAt on the test's goroutine.
func mustSnapshotAt(tb testing.TB, r rica.ScenarioRun, at time.Duration) []byte {
	tb.Helper()
	snap, err := snapshotAt(tb.TempDir(), r, at)
	if err != nil {
		tb.Fatalf("snapshot at %v: %v", at, err)
	}
	return snap
}

// checkRoundTrip checkpoints r at instant at, resumes the snapshot in a
// fresh world, and requires the resumed run's fingerprint to equal the
// uninterrupted run's, with invariants holding on both.
func checkRoundTrip(t *testing.T, r rica.ScenarioRun, at time.Duration) {
	t.Helper()
	base := mustRun(t, r, rica.RunOptions{})
	if err := rica.CheckInvariants(base); err != nil {
		t.Fatalf("uninterrupted run invariants: %v", err)
	}
	resumed, err := rica.Resume(bytes.NewReader(mustSnapshotAt(t, r, at)), rica.RunOptions{})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := rica.CheckInvariants(resumed); err != nil {
		t.Errorf("resumed run invariants: %v", err)
	}
	if got, want := rica.Fingerprint(resumed), rica.Fingerprint(base); got != want {
		t.Errorf("resumed fingerprint diverged from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
}

// TestCheckpointResumeCatalog round-trips a snapshot mid-run for a
// catalog cross-section × all five protocols: static chains, mobile
// dense fields, jammers, and a failure schedule all pass through the
// capture/replay/verify path, serially.
func TestCheckpointResumeCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog × protocol round-trip grid")
	}
	t.Parallel()
	scenarios := []string{"chain-10", "dense-urban", "jammer-grid", "partition-heal"}
	for _, name := range scenarios {
		for _, p := range rica.AllProtocols() {
			name, p := name, p
			t.Run(fmt.Sprintf("%s/%s", name, p), func(t *testing.T) {
				t.Parallel()
				checkRoundTrip(t, ckRun(t, name, p), 2500*time.Millisecond)
			})
		}
	}
}

// TestCheckpointResumeInstants round-trips the paper's baseline at
// several capture instants — early (routes still forming), mid-run, and
// just before the horizon.
func TestCheckpointResumeInstants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instant round trips")
	}
	t.Parallel()
	for _, at := range []time.Duration{1 * time.Second, 3500 * time.Millisecond, 5900 * time.Millisecond} {
		at := at
		t.Run(at.String(), func(t *testing.T) {
			t.Parallel()
			checkRoundTrip(t, ckRun(t, "paper-baseline", rica.ProtocolRICA), at)
		})
	}
}

// TestCheckpointResumeConcurrent loops the 5.9 s round trip in four
// goroutines at once. Worlds in one process share the packet pool, so a
// capture that reads a packet its receiver has already released sees
// another run's bytes and the resume reports ErrCheckpointCorrupt — on
// some schedules only, and never when the round trips run one at a
// time. 5.9 s is the instant that lands inside an exchange's ACK window.
func TestCheckpointResumeConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent round-trip loop")
	}
	r := ckRun(t, "paper-baseline", rica.ProtocolRICA)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		dir := t.TempDir()
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				snap, err := snapshotAt(dir, r, 5900*time.Millisecond)
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if _, err := rica.Resume(bytes.NewReader(snap), rica.RunOptions{}); err != nil {
					t.Errorf("Resume: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunCheckpointedCompletes runs to the horizon under a periodic
// snapshot regime, then resumes the last periodic snapshot: it must
// finish where the plain run does. (That the regime itself leaves the
// summary alone is TestOptionsAreObservers' law.)
func TestRunCheckpointedCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpointed full run")
	}
	t.Parallel()
	r := ckRun(t, "chain-10", rica.ProtocolRICA)
	base := mustRun(t, r, rica.RunOptions{})
	path := filepath.Join(t.TempDir(), "run.ckpt")
	mustRun(t, r, rica.RunOptions{CheckpointPath: path, CheckpointEvery: 1500 * time.Millisecond})
	// The last periodic snapshot (t=4.5s of the 6 s horizon) must resume
	// to the same place.
	resumed, err := resumeFile(path, rica.RunOptions{})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got, want := rica.Fingerprint(resumed), rica.Fingerprint(base); got != want {
		t.Errorf("resume of last periodic snapshot diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestRunCheckpointedInterruptResume interrupts a run via the stop
// channel, then resumes its final snapshot and requires the completed
// fingerprint to equal the uninterrupted run's — the crash-recovery
// contract end to end. The stop is closed before the run starts, so the
// kernel stops once the events of t=0 have dispatched and the snapshot
// is of that instant. (TestCheckpointedStopLaw closes it mid-run.)
func TestRunCheckpointedInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("interrupt + resume")
	}
	t.Parallel()
	r := ckRun(t, "dense-urban", rica.ProtocolBGCA)
	base := mustRun(t, r, rica.RunOptions{})
	stop := make(chan struct{})
	close(stop) // "signal" arrives before the run starts
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := rica.Run(r, rica.RunOptions{CheckpointPath: path, CheckpointEvery: time.Second, Stop: stop})
	if !errors.Is(err, rica.ErrInterrupted) {
		t.Fatalf("Run with closed stop: err = %v, want ErrInterrupted", err)
	}
	resumed, err := resumeFile(path, rica.RunOptions{})
	if err != nil {
		t.Fatalf("Resume after interrupt: %v", err)
	}
	if got, want := rica.Fingerprint(resumed), rica.Fingerprint(base); got != want {
		t.Errorf("post-interrupt resume diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestRunCheckpointedInterruptWriteFails interrupts a run whose
// checkpoint directory has been removed: the final snapshot cannot be
// written, so the run must fail with the write's error and must not
// report a resumable interruption — the CLI tells the user to resume the
// snapshot on ErrInterrupted.
func TestRunCheckpointedInterruptWriteFails(t *testing.T) {
	t.Parallel()
	gone := filepath.Join(t.TempDir(), "gone") // as after an rm -r: the directory is not there
	stop := make(chan struct{})
	close(stop)
	_, err := rica.Run(ckRun(t, "chain-10", rica.ProtocolRICA), rica.RunOptions{
		CheckpointPath: filepath.Join(gone, "run.ckpt"), CheckpointEvery: time.Second, Stop: stop,
	})
	if err == nil || errors.Is(err, rica.ErrInterrupted) {
		t.Fatalf("interrupt with an unwritable snapshot: err = %v, want the write error and no resumable interruption", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v, want it to carry the failed write (os.ErrNotExist)", err)
	}
}

// startedWorld builds and starts the world of one catalog cell, the way
// rica.Run does, so a test can drive RunTo and the
// capture sinks directly. A zero seed keeps the scenario's own; a zero
// horizon keeps its full duration.
func startedWorld(tb testing.TB, name string, p rica.Protocol, seed int64, horizon time.Duration) *world.World {
	tb.Helper()
	spec, err := rica.ScenarioByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := spec.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if horizon > 0 {
		cfg.Duration = horizon
	}
	w := world.New(cfg, protocol.Factory(p, spec.Traffic.Rate))
	w.Start()
	return w
}

// TestCaptureSinksAgree is the law behind "one encoding, two sinks": the
// digests a snapshot stores (CaptureDigests, streamed into the hash) are
// the SHA-256 of the payloads the debugging sink returns (CaptureState),
// tag for tag in the same order, with checkpoint.Digest as the oracle.
// A capture is also a strict read: taken twice at one instant it is
// equal, and the run that was captured finishes with the fingerprint of
// one that never was.
func TestCaptureSinksAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog × protocol capture grid, one capture at t=300s")
	}
	t.Parallel()
	type shot struct {
		name string
		p    rica.Protocol
		at   time.Duration
	}
	shots := []shot{{"paper-baseline", rica.ProtocolRICA, 300 * time.Second}}
	for _, name := range rica.ScenarioNames() {
		for _, p := range rica.AllProtocols() {
			shots = append(shots, shot{name, p, time.Second})
		}
	}
	for _, sh := range shots {
		sh := sh
		t.Run(fmt.Sprintf("%s/%s@%v", sh.name, sh.p, sh.at), func(t *testing.T) {
			t.Parallel()
			horizon := sh.at + time.Second
			w := startedWorld(t, sh.name, sh.p, 0, horizon)
			w.RunTo(sh.at)
			digests, err := w.CaptureDigests()
			if err != nil {
				t.Fatalf("CaptureDigests: %v", err)
			}
			payloads, err := w.CaptureState()
			if err != nil {
				t.Fatalf("CaptureState: %v", err)
			}
			again, err := w.CaptureDigests()
			if err != nil {
				t.Fatalf("second CaptureDigests: %v", err)
			}
			want := checkpoint.Digest(payloads)
			if len(digests) != len(stateTags) || len(want) != len(stateTags) || len(again) != len(stateTags) {
				t.Fatalf("captures hold %d, %d and %d sections, want %d each", len(digests), len(want), len(again), len(stateTags))
			}
			for i, tag := range stateTags {
				if digests[i].Tag != tag || want[i].Tag != tag {
					t.Errorf("section %d is %s in the digest sink and %s in the payload sink, want %s", i, digests[i].Tag, want[i].Tag, tag)
				}
				if !bytes.Equal(digests[i].Payload, want[i].Payload) {
					t.Errorf("%s: streamed digest %x, SHA-256 of the %d-byte payload %x", tag, digests[i].Payload, len(payloads[i].Payload), want[i].Payload)
				}
				if !bytes.Equal(again[i].Payload, digests[i].Payload) || again[i].Tag != tag {
					t.Errorf("%s: a second capture at the same instant differs", tag)
				}
			}
			w.RunTo(horizon)
			captured := rica.Fingerprint(w.Finish())
			pw := startedWorld(t, sh.name, sh.p, 0, horizon)
			pw.RunTo(horizon)
			if plain := rica.Fingerprint(pw.Finish()); captured != plain {
				t.Errorf("capturing moved the run's fingerprint\n got: %s\nwant: %s", captured, plain)
			}
		})
	}
}

// TestEffortCountersOutsideWitness: OBSC witnesses what a run computed,
// not how. Moving a cache-efficacy counter leaves the section's digest
// alone — so an optimisation of the channel layer does not make resume
// call the previous binary's snapshot corrupt — while a counter of
// simulated behaviour still moves it.
func TestEffortCountersOutsideWitness(t *testing.T) {
	t.Parallel()
	w := startedWorld(t, "paper-baseline", rica.ProtocolRICA, 0, 3*time.Second)
	w.RunTo(2 * time.Second)
	obsc := func() []byte {
		t.Helper()
		digests, err := w.CaptureDigests()
		if err != nil {
			t.Fatalf("CaptureDigests: %v", err)
		}
		return checkpoint.Find(digests, checkpoint.TagObsC)
	}
	before := obsc()
	for _, c := range []obs.Counter{
		obs.CClassHits, obs.CDistMisses, obs.CGridRebuilds, obs.CAnnulusChecks,
	} {
		w.Obs.Inc(c)
	}
	if !bytes.Equal(obsc(), before) {
		t.Error("OBSC moved with the effort counters")
	}
	w.Obs.Inc(obs.CClassMisses)
	if bytes.Equal(obsc(), before) {
		t.Error("OBSC did not move with chan_class_misses")
	}
}

// snapshotGolden is the SHA-256 of the complete snapshot of chain-10
// under ABR, seed 1, horizon 6 s, captured at t=1 s — re-taken once for
// RICACKP8, which differs from the RICACKP7 snapshot of the same instant
// in the magic, the OBSC digest (the counters' JSON lost
// ladder_far_pushes with the queue tier it counted) and the tail CRC
// only: the other seven section digests — KERN above all, the live
// schedule the queue holds — were compared against the parent commit's
// and are equal.
const snapshotGolden = "4e0ab6a624ff0ce146b393779affbde74f16cadef1ef943f6b677caa5bd3558d"

// TestSnapshotBytesPinned pins the format's bytes (an ABI test): the
// recipe, the section order and framing, and every value each encoder
// feeds its digest, in order and width. Without it an encoder edit first
// shows as a resume calling an older binary's snapshot corrupt; this
// fails at the edit and says to bump the magic. chain-10 is static and
// carries neither gossip nor a jammer, so two more cells hold the
// branches it leaves empty: gossip-200 under RICA fills MOBI's 200 legs
// and TRAF's infection bitmap, and jammer-grid under AODV has jam bursts
// on the air in MACS at the capture instant.
func TestSnapshotBytesPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name, want string
		p          rica.Protocol
	}{
		{"chain-10", snapshotGolden, rica.ProtocolABR},
		{"gossip-200", "81d2906489c4bc145ad8f1ff71b68cdb7779a0b500cb3e904dfd8c024df969ea", rica.ProtocolRICA},
		{"jammer-grid", "003e5db1eba68403252ce3c511f1421ff449b3bbced09a8a31de8b284e9eaaf4", rica.ProtocolAODV},
	} {
		r := ckRun(t, c.name, c.p)
		r.Seed = 1
		if got := fmt.Sprintf("%x", sha256.Sum256(mustSnapshotAt(t, r, time.Second))); got != c.want {
			t.Errorf("snapshot of %s/%s/seed 1 at t=1s hashes to\n     %s\nwant %s\n"+
				"Snapshots written before this change no longer verify against this binary. If the run itself moved "+
				"(the behaviour goldens fail too) or the scenario's recipe was edited, update the constant; if an encoder, "+
				"a section or the container changed, bump checkpoint.Magic as well so old snapshots are refused by "+
				"version instead of reported corrupt.", c.name, c.p, got, c.want)
		}
	}
}

// stateTags are the eight state sections a snapshot carries after DESC,
// in file order.
var stateTags = []string{
	checkpoint.TagKern, checkpoint.TagRNGs, checkpoint.TagMobi, checkpoint.TagLink,
	checkpoint.TagMACs, checkpoint.TagNode, checkpoint.TagTraf, checkpoint.TagObsC,
}

// reencode parses a valid snapshot, lets edit alter the payload of the
// section tagged tag, and frames the result again — so the container's
// CRCs pass and only resume's own checks stand between the edit and a
// run.
func reencode(t *testing.T, snap []byte, tag string, edit func(payload []byte) []byte) []byte {
	t.Helper()
	secs, err := checkpoint.Read(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("Read of a valid snapshot: %v", err)
	}
	for i := range secs {
		if secs[i].Tag == tag {
			secs[i].Payload = edit(secs[i].Payload)
		}
	}
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, secs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotIsBytes holds the format's promise: a snapshot is the
// recipe, the instant and eight 32-byte digests, so it stays under
// 4 KiB for every catalog scenario — 7 terminals or 500 — and late in
// the paper's cell as much as early in it. Everything but the recipe
// is the same number of bytes in every snapshot.
func TestSnapshotIsBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("one capture per catalog scenario, one at t=300s")
	}
	t.Parallel()
	type shot struct {
		name string
		at   time.Duration
	}
	shots := []shot{{"paper-baseline", 300 * time.Second}}
	for _, name := range rica.ScenarioNames() {
		shots = append(shots, shot{name, time.Second})
	}
	for _, sh := range shots {
		sh := sh
		t.Run(fmt.Sprintf("%s@%v", sh.name, sh.at), func(t *testing.T) {
			t.Parallel()
			spec, err := rica.ScenarioByName(sh.name)
			if err != nil {
				t.Fatal(err)
			}
			snap := mustSnapshotAt(t, rica.ScenarioRun{Scenario: spec, Protocol: rica.ProtocolRICA}, sh.at)
			if len(snap) > 4096 {
				t.Errorf("snapshot is %d bytes, want at most 4096", len(snap))
			}
			secs, err := checkpoint.Read(bytes.NewReader(snap))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if len(secs) != 1+len(stateTags) || secs[0].Tag != checkpoint.TagDesc {
				t.Fatalf("snapshot holds %d sections starting with %s, want DESC + %d", len(secs), secs[0].Tag, len(stateTags))
			}
			for i, tag := range stateTags {
				if s := secs[1+i]; s.Tag != tag || len(s.Payload) != 32 {
					t.Errorf("section %d is %s with %d bytes, want %s with a 32-byte digest", 1+i, s.Tag, len(s.Payload), tag)
				}
			}
			// Magic, nine section frames, eight digests and the tail.
			const framing = 8 + 9*12 + 8*32 + 20
			if got := len(snap) - len(secs[0].Payload); got != framing {
				t.Errorf("snapshot is %d bytes beyond its recipe, want %d", got, framing)
			}
		})
	}
}

// TestResumeRejectsDamage flips single bytes across a valid snapshot,
// truncates it at several prefixes, and re-encodes it with an edited
// horizon and edited digests: every damaged variant must fail cleanly
// with ErrCheckpointCorrupt — never panic, never resume.
func TestResumeRejectsDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("damage sweep over a real snapshot")
	}
	t.Parallel()
	snap := mustSnapshotAt(t, ckRun(t, "chain-10", rica.ProtocolABR), time.Second)
	resume := func(snap []byte) error {
		_, err := rica.Resume(bytes.NewReader(snap), rica.RunOptions{})
		return err
	}
	// Single-byte corruption at positions spread across the file.
	for i := 0; i < len(snap); i += len(snap)/37 + 1 {
		bad := append([]byte(nil), snap...)
		bad[i] ^= 0x40
		if err := resume(bad); err == nil {
			t.Fatalf("Resume accepted snapshot with byte %d flipped", i)
		}
	}
	// Truncations, including an empty file.
	for _, n := range []int{0, 3, 8, 20, len(snap) / 2, len(snap) - 1} {
		if err := resume(snap[:n]); !errors.Is(err, rica.ErrCheckpointCorrupt) {
			t.Fatalf("Resume of %d-byte truncation: err = %v, want ErrCheckpointCorrupt", n, err)
		}
	}
	// Trailing garbage after a valid file.
	if err := resume(append(append([]byte(nil), snap...), 0xEE)); !errors.Is(err, rica.ErrCheckpointCorrupt) {
		t.Fatalf("Resume with trailing byte: err = %v, want ErrCheckpointCorrupt", err)
	}
	// A recorded horizon the embedded recipe does not compile to: the
	// container is intact, the run it describes is not this one.
	longer := reencode(t, snap, checkpoint.TagDesc, func(payload []byte) []byte {
		d, err := checkpoint.DecodeDescriptor(payload)
		if err != nil {
			t.Fatalf("DecodeDescriptor: %v", err)
		}
		d.HorizonNs += int64(time.Second)
		edited, err := checkpoint.EncodeDescriptor(d)
		if err != nil {
			t.Fatalf("EncodeDescriptor: %v", err)
		}
		return edited
	})
	err := resume(longer)
	if !errors.Is(err, rica.ErrCheckpointCorrupt) {
		t.Fatalf("Resume with an edited horizon: err = %v, want ErrCheckpointCorrupt", err)
	}
	for _, horizon := range []time.Duration{ckDuration + time.Second, ckDuration} {
		if !strings.Contains(err.Error(), horizon.String()) {
			t.Fatalf("Resume with an edited horizon: err = %v, want it to name %v", err, horizon)
		}
	}
	// One altered digest is a divergence in exactly that section; a
	// stored digest of any other width is not a digest.
	for _, tag := range stateTags {
		altered := reencode(t, snap, tag, func(payload []byte) []byte {
			payload[7] ^= 0x01
			return payload
		})
		if err := resume(altered); !errors.Is(err, rica.ErrCheckpointCorrupt) || !strings.Contains(err.Error(), tag) {
			t.Fatalf("Resume with the %s digest altered: err = %v, want ErrCheckpointCorrupt naming %s", tag, err, tag)
		}
	}
	for _, resize := range []func([]byte) []byte{
		func(p []byte) []byte { return p[:31] },
		func(p []byte) []byte { return append(p, 0) },
		func([]byte) []byte { return []byte{} },
	} {
		resized := reencode(t, snap, checkpoint.TagKern, resize)
		if err := resume(resized); !errors.Is(err, rica.ErrCheckpointCorrupt) || !strings.Contains(err.Error(), checkpoint.TagKern) {
			t.Fatalf("Resume with a mis-sized KERN digest: err = %v, want ErrCheckpointCorrupt naming KERN", err)
		}
	}
}
