//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel has no parent-death signal.
func dieWithParent(*exec.Cmd) {}
