package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one process run to exit, as its parent saw it.
type child struct {
	wall   time.Duration
	cpu    time.Duration // user+system, the child's rusage (its reaped descendants included)
	rssKB  int64         // rusage Maxrss; kilobytes on Linux
	stdout []byte
	stderr []byte
}

// command prepares bin in a process group of its own, so that cancelling
// ctx (SIGINT to the harness included) kills it and anything it spawned.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// runChild runs bin to exit. A nonzero exit is an error that carries the
// tail of the child's stderr; the timings are filled either way.
func runChild(ctx context.Context, bin string, args ...string) (child, error) {
	var stdout, stderr bytes.Buffer
	cmd := command(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	c.cpu, c.rssKB = usage(cmd.ProcessState)
	if err != nil {
		return c, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(c.stderr, 400))
	}
	return c, nil
}

func usage(ps *os.ProcessState) (cpu time.Duration, rssKB int64) {
	if ps == nil {
		return 0, 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssKB = int64(ru.Maxrss)
	}
	return ps.UserTime() + ps.SystemTime(), rssKB
}

// selfCPU is the harness's own user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// killStrays SIGKILLs every process whose command line mentions dir and
// returns how many it found. Every child the harness starts is handed a
// path under its temp dir (the daemon's -data, a worker's -manifest, an
// -out file), so after an orderly teardown the count is zero; a worker
// orphaned by a daemon that had to be force-killed is caught here.
func killStrays(dir string) int {
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	n := 0
	for _, p := range procs {
		pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
		if pid == os.Getpid() {
			continue
		}
		line, err := os.ReadFile(p)
		if err != nil || !bytes.Contains(line, []byte(dir)) {
			continue
		}
		if syscall.Kill(pid, syscall.SIGKILL) == nil {
			n++
		}
	}
	return n
}
