//go:build unix

package serve

import (
	"os/exec"
	"syscall"
)

// setProcessGroup puts the worker in its own process group so a kill
// reaches the worker and anything it spawned, not the daemon.
func setProcessGroup(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
}

// signalProcess delivers SIGTERM (force=false: the drain, where the
// worker stops at its current instant, journals, and exits 3) or SIGKILL
// (force=true: the hang and cancel paths, where cooperation cannot be
// assumed) to the worker's whole process group.
func signalProcess(cmd *exec.Cmd, force bool) {
	if cmd.Process == nil {
		return
	}
	sig := syscall.SIGTERM
	if force {
		sig = syscall.SIGKILL
	}
	if err := syscall.Kill(-cmd.Process.Pid, sig); err != nil && force {
		_ = cmd.Process.Kill()
	}
}
