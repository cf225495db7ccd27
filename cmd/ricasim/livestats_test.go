package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLiveStatsSeeEveryMode: -stats, -statsaddr and -obs read one hub,
// and the hub sees the run whichever mode performs it. A -checkpoint
// run, the -resume of its snapshot and a -figure grid each leave an -obs
// snapshot counting exactly the events the mode reports having
// dispatched (each once printed zeros here: only -scenario batches were
// wired to the hub).
func TestLiveStatsSeeEveryMode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)
	dir := t.TempDir()
	snapshot := filepath.Join(dir, "run.ckpt")
	runLine := regexp.MustCompile(` events=(\d+)\n`)            // printRunResult's
	meterLine := regexp.MustCompile(`kernel: (\d+) events in `) // -events-per-sec's
	for _, mode := range []struct {
		name    string
		printed *regexp.Regexp
		args    []string
	}{
		{"checkpoint", runLine, []string{"-scenario", "chain-10", "-protocols", "RICA", "-duration", "5s",
			"-checkpoint", snapshot, "-checkpoint-every", "2s"}},
		{"resume", runLine, []string{"-resume", snapshot}},
		{"figure", meterLine, []string{"-figure", "2a", "-trials", "1", "-duration", "2s", "-speeds", "0,36",
			"-protocols", "RICA,AODV", "-events-per-sec"}},
	} {
		obsPath := filepath.Join(dir, mode.name+".json")
		out, err := exec.Command(bin, append(mode.args, "-obs", obsPath)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, out)
		}
		m := mode.printed.FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s: output reports no event count:\n%s", mode.name, out)
		}
		want, _ := strconv.ParseUint(string(m[1]), 10, 64)
		data, err := os.ReadFile(obsPath)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		var snap struct {
			EventsDispatched uint64 `json:"events_dispatched"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("%s: -obs snapshot: %v", mode.name, err)
		}
		if want == 0 || snap.EventsDispatched != want {
			t.Errorf("%s: -obs snapshot counts %d events_dispatched, the run reports %d", mode.name, snap.EventsDispatched, want)
		}
	}
	// -verify runs every cell twice; a live view of that is refused.
	for _, flag := range []string{"-stats=1s", "-statsaddr=127.0.0.1:0", "-obs=" + filepath.Join(dir, "verify.json")} {
		out, err := exec.Command(bin, "-scenario", "chain-10", "-protocols", "RICA", "-duration", "1s", "-verify", flag).CombinedOutput()
		name, _, _ := strings.Cut(flag, "=")
		if err == nil || !strings.Contains(string(out), name+" is not supported with -verify") {
			t.Errorf("-verify %s: err = %v, output:\n%s", flag, err, out)
		}
	}
}
