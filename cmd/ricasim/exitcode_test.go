package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestExitCodeContract pins the CLI's exit statuses end to end, as real
// subprocesses: 0 success, 1 error, 3 interrupted-but-resumable, 130
// forced by a second signal. Schedulers, the serve supervisor, and the
// CI crash-resume job all dispatch on these numbers, so they are API.
// The first signal stops the simulation at its current instant, so the
// interrupted cases also bound the time from signal to exit with a long
// cell in flight, and check that what the interruption left behind — a
// snapshot, a manifest — finishes the work with the uninterrupted bytes.
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)

	cases := []struct {
		name string
		args func(dir string) []string
		// signals to deliver after evidence the run is underway — a
		// stderr line matching underway, a progress line by default; the
		// second (when present) waits for the interrupt banner first.
		signals  int
		underway string
		// stallStdout connects stdout to a pipe nobody reads, so the
		// exported result blocks the process once it fills the pipe.
		stallStdout bool
		wantCode    int
		wantErr     string // substring required on stderr
		banErr      string // substring that must not appear on stderr
		// within, when set, bounds the wall time from the first signal to
		// the exit.
		within time.Duration
		// then, when set, checks what the run left in dir.
		then func(t *testing.T, bin, dir string)
	}{
		{
			name: "success is 0",
			args: func(dir string) []string {
				return []string{"-scenario", "chain-10", "-protocols", "RICA", "-trials", "1",
					"-duration", "5s", "-format", "json", "-out", filepath.Join(dir, "out.json")}
			},
			wantCode: 0,
		},
		{
			name: "usage error is 1",
			args: func(dir string) []string {
				return []string{"-scenario", "no-such-scenario"}
			},
			wantCode: 1,
			wantErr:  "no-such-scenario",
		},
		{
			// Rejected on the flags alone, before the file is opened.
			name: "a snapshot cadence with nowhere to write is 1",
			args: func(dir string) []string {
				return []string{"-resume", filepath.Join(dir, "run.ckpt"), "-checkpoint-every", "5s"}
			},
			wantCode: 1,
			wantErr:  "-checkpoint-every needs a -checkpoint",
		},
		{
			// The sweep options read BaseSeed 0 as "the default": refused,
			// never replaced by seed 1.
			name: "a figure at -seed 0 is 1",
			args: func(string) []string {
				return []string{"-figure", "2a", "-trials", "1", "-duration", "2s", "-speeds", "36", "-seed", "0"}
			},
			wantCode: 1,
			wantErr:  "-seed 0 cannot be expressed",
			banErr:   "running ",
		},
		{
			// A figure point is a scenario, so the spec validator refuses
			// it — before the valid points ahead of it in the list run.
			name: "a negative figure speed is 1",
			args: func(string) []string {
				return []string{"-figure", "2a", "-trials", "1", "-duration", "2s", "-speeds=36,-5"}
			},
			wantCode: 1,
			wantErr:  "mean speed must be a non-negative number, got -5",
			banErr:   "running ",
		},
		{
			name: "a NaN figure speed is 1",
			args: func(string) []string {
				return []string{"-figure", "2a", "-trials", "1", "-duration", "2s", "-speeds=nan"}
			},
			wantCode: 1,
			wantErr:  "mean speed must be a non-negative number, got NaN",
			banErr:   "running ",
		},
		{
			name: "interrupted batch is 3",
			args: func(dir string) []string {
				return []string{"-scenario", "dense-urban", "-protocols", "RICA", "-trials", "50",
					"-duration", "30s", "-format", "json",
					"-manifest", filepath.Join(dir, "manifest"),
					"-out", filepath.Join(dir, "out.json")}
			},
			signals:  1,
			wantCode: exitCodeInterrupted,
			wantErr:  "interrupted",
		},
		{
			// The first signal's flush is stuck on a full stdout pipe
			// (a thousand result rows, some 300 KB), so only the second
			// can end the process.
			name: "second signal forces 130",
			args: func(dir string) []string {
				return []string{"-scenario", "dense-urban", "-protocols", "RICA", "-trials", "1000",
					"-duration", "30s", "-format", "json"}
			},
			signals:     2,
			stallStdout: true,
			wantCode:    exitCodeForced,
			wantErr:     "forced exit",
		},
		{
			// metro-500 × LinkState spends about 3 s here between the 10 s
			// snapshot boundaries: a stop honoured only there misses the
			// bound by seconds.
			name: "a signal stops a checkpointed run at its instant",
			args: func(dir string) []string {
				return append(longCell("-checkpoint", filepath.Join(dir, "run.ckpt")), "-stats", "50ms")
			},
			signals:  1,
			underway: `^stats: sim=[1-9]`,
			wantCode: exitCodeInterrupted,
			wantErr:  "resume with",
			within:   time.Second,
			then: func(t *testing.T, bin, dir string) {
				ref := fingerprintLine(t, bin, longCell("-checkpoint", filepath.Join(dir, "ref.ckpt"))...)
				if got := fingerprintLine(t, bin, "-resume", filepath.Join(dir, "run.ckpt")); got != ref {
					t.Errorf("resume of the interrupted run printed\n%s\nthe uninterrupted run\n%s", got, ref)
				}
			},
		},
		{
			// chain-10 finishes and is journaled; the metro-500 cell is in
			// flight when the signal lands and is abandoned, not journaled.
			name: "a signal stops a batch's in-flight cell",
			args: func(dir string) []string {
				return stoppedGrid(dir, "m", "out.json")
			},
			signals:  1,
			underway: `^\[1/2\]`,
			wantCode: exitCodeInterrupted,
			wantErr:  "interrupted",
			within:   time.Second,
			then: func(t *testing.T, bin, dir string) {
				for _, args := range [][]string{stoppedGrid(dir, "m", "out.json"), stoppedGrid(dir, "ref.m", "ref.json")} {
					if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
						t.Fatalf("%v: %v\n%s", args, err, out)
					}
				}
				resumed, err := os.ReadFile(filepath.Join(dir, "out.json"))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := os.ReadFile(filepath.Join(dir, "ref.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resumed, ref) {
					t.Errorf("the manifest re-run exported %d bytes that differ from the uninterrupted grid's %d", len(resumed), len(ref))
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cmd := exec.Command(bin, tc.args(dir)...)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if tc.stallStdout {
				r, w, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				defer w.Close()
				cmd.Stdout = w
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}

			var collected strings.Builder
			lines := make(chan string, 64)
			go func() {
				sc := bufio.NewScanner(stderr)
				for sc.Scan() {
					lines <- sc.Text()
				}
				close(lines)
			}()

			var signalled time.Time
			if tc.signals > 0 {
				underway := tc.underway
				if underway == "" {
					// The first progress line proves the batch is mid-grid
					// with the signal handler installed.
					underway = `^\[`
				}
				waitForLine(t, lines, &collected, underway)
				_ = cmd.Process.Signal(syscall.SIGINT)
				signalled = time.Now()
				if tc.signals > 1 {
					waitForLine(t, lines, &collected, "interrupt again")
					_ = cmd.Process.Signal(syscall.SIGINT)
				}
			}
			for line := range lines {
				collected.WriteString(line)
				collected.WriteByte('\n')
			}
			code := 0
			if err := cmd.Wait(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			if took := time.Since(signalled); tc.within > 0 && took > tc.within {
				t.Errorf("exited %v after the signal, want within %v", took.Round(time.Millisecond), tc.within)
			}
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d\nstderr:\n%s", code, tc.wantCode, collected.String())
			}
			if tc.wantErr != "" && !strings.Contains(collected.String(), tc.wantErr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantErr, collected.String())
			}
			if tc.banErr != "" && strings.Contains(collected.String(), tc.banErr) {
				t.Errorf("stderr has %q:\n%s", tc.banErr, collected.String())
			}
			if tc.then != nil && code == tc.wantCode {
				tc.then(t, bin, dir)
			}
		})
	}
}

// longCell is the arguments of one single-run metro-500 × LinkState cell
// at 12 s, the run the signal-latency cases interrupt, with extra
// appended.
func longCell(extra ...string) []string {
	return append([]string{"-scenario", "metro-500", "-protocols", "LinkState", "-duration", "12s"}, extra...)
}

// stoppedGrid is a two-cell batch whose second cell is long — chain-10
// then metro-500, LinkState, one worker — journaling to dir/manifest and
// exporting to dir/out.
func stoppedGrid(dir, manifest, out string) []string {
	return []string{"-scenario", "chain-10,metro-500", "-protocols", "LinkState", "-trials", "1",
		"-duration", "12s", "-parallelism", "1", "-format", "json",
		"-manifest", filepath.Join(dir, manifest), "-out", filepath.Join(dir, out)}
}

// fingerprintLine runs a single-run ricasim to completion and returns
// the fingerprint line it prints first.
func fingerprintLine(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	line, _, _ := strings.Cut(string(out), "\n")
	if !strings.HasPrefix(line, "fingerprint: ") {
		t.Fatalf("%v printed %q, want a fingerprint line first", args, line)
	}
	return line
}

// waitForLine reads lines until one matches the regular expression
// pattern, accumulating them.
func waitForLine(t *testing.T, lines <-chan string, collected *strings.Builder, pattern string) {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stderr closed before a line matching %q appeared:\n%s", pattern, collected.String())
			}
			collected.WriteString(line)
			collected.WriteByte('\n')
			if re.MatchString(line) {
				return
			}
		case <-deadline:
			t.Fatalf("no line matching %q within deadline:\n%s", pattern, collected.String())
		}
	}
}

// TestInterruptedManifestResumes closes the loop on exit code 3: a
// second run over the same manifest restores the journaled cells and
// finishes with 0.
func TestInterruptedManifestResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)
	dir := t.TempDir()
	args := []string{"-scenario", "dense-urban", "-protocols", "RICA", "-trials", "50",
		"-duration", "30s", "-format", "json",
		"-manifest", filepath.Join(dir, "manifest"),
		"-out", filepath.Join(dir, "out.json")}

	first := exec.Command(bin, args...)
	stderr, err := first.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	var collected strings.Builder
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitForLine(t, lines, &collected, `^\[1/`)
	_ = first.Process.Signal(syscall.SIGINT)
	for range lines {
	}
	err = first.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitCodeInterrupted {
		t.Fatalf("first run: %v (stderr:\n%s)", err, collected.String())
	}

	second := exec.Command(bin, args...)
	out, err := second.CombinedOutput()
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "manifest: restored") {
		t.Errorf("resume run did not restore journaled cells:\n%s", out)
	}
}

// TestBatchSeedZeroIsHonoured: the -seed flag defaults to 1, so a 0 is
// always asked for, and "trial t uses seed+t" means the grid starts at
// seed 0 — not at the default the engine's zero sentinel stands for.
func TestBatchSeedZeroIsHonoured(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)
	run := func(seed string) (stdout, stderr string) {
		var out, errb strings.Builder
		cmd := exec.Command(bin, "-scenario", "chain-10", "-protocols", "RICA", "-trials", "1",
			"-duration", "2s", "-format", "json", "-seed", seed)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("-seed %s: %v\n%s", seed, err, errb.String())
		}
		return out.String(), errb.String()
	}
	zero, progress := run("0")
	if !strings.Contains(progress, "seed=0 ") {
		t.Errorf("-seed 0 did not run seed 0:\n%s", progress)
	}
	if !strings.Contains(zero, `"base_seed": 0`) {
		t.Errorf("-seed 0 export does not record base seed 0:\n%s", zero)
	}
	if one, _ := run("1"); one == zero {
		t.Error("-seed 0 and -seed 1 exported the same bytes")
	}
}
