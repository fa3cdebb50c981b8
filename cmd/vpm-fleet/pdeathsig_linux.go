package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel send cmd SIGTERM when the supervisor
// dies, so even a kill -9 of the supervisor leaves no child serving.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}
