package main

import (
	"bufio"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestExitCodeContract pins the CLI's exit statuses end to end, as real
// subprocesses: 0 success, 1 error, 3 interrupted-but-resumable, 130
// forced by a second signal. Schedulers, the serve supervisor, and the
// CI crash-resume job all dispatch on these numbers, so they are API.
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := ricasimBinary(t)

	cases := []struct {
		name string
		args func(dir string) []string
		// signals to deliver after evidence the run is underway; the
		// second (when present) waits for the drain banner first.
		signals  int
		wantCode int
		wantErr  string // substring required on stderr
		banErr   string // substring that must not appear on stderr
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
			name: "second signal forces 130",
			args: func(dir string) []string {
				return []string{"-scenario", "dense-urban", "-protocols", "RICA", "-trials", "50",
					"-duration", "30s", "-format", "json",
					"-out", filepath.Join(dir, "out.json")}
			},
			signals:  2,
			wantCode: exitCodeForced,
			wantErr:  "forced exit",
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

			if tc.signals > 0 {
				// First progress line proves the batch is mid-grid with
				// the signal handler installed.
				waitForLine(t, lines, &collected, "[")
				_ = cmd.Process.Signal(syscall.SIGINT)
				if tc.signals > 1 {
					waitForLine(t, lines, &collected, "draining")
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
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d\nstderr:\n%s", code, tc.wantCode, collected.String())
			}
			if tc.wantErr != "" && !strings.Contains(collected.String(), tc.wantErr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantErr, collected.String())
			}
			if tc.banErr != "" && strings.Contains(collected.String(), tc.banErr) {
				t.Errorf("stderr has %q:\n%s", tc.banErr, collected.String())
			}
		})
	}
}

// waitForLine reads lines until one contains substr, accumulating them.
func waitForLine(t *testing.T, lines <-chan string, collected *strings.Builder, substr string) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stderr closed before %q appeared:\n%s", substr, collected.String())
			}
			collected.WriteString(line)
			collected.WriteByte('\n')
			if strings.Contains(line, substr) {
				return
			}
		case <-deadline:
			t.Fatalf("no %q line within deadline:\n%s", substr, collected.String())
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
	waitForLine(t, lines, &collected, "[1/")
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
