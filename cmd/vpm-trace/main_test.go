package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildTrace compiles the vpm-trace binary into a temp dir.
func buildTrace(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vpm-trace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestGenInfoRoundTrip: what gen writes, info reads back — the same
// packet count over the same two paths.
func TestGenInfoRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-trace binary")
	}
	bin := buildTrace(t)
	file := filepath.Join(t.TempDir(), "t.vpmtrc")
	out, err := exec.Command(bin, "gen", "-o", file, "-rate", "20000", "-duration", "100ms", "-paths", "2", "-seed", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("wrote 4047 packets (2 paths, 100ms)")) {
		t.Fatalf("gen reported:\n%s", out)
	}
	out, err = exec.Command(bin, "info", "-i", file).CombinedOutput()
	if err != nil {
		t.Fatalf("info: %v\n%s", err, out)
	}
	for _, want := range []string{"packets:   4047 over 100ms", "paths (/16 pairs): 2", "10.1.0.0/16->172.16.0.0/16: ", "10.2.0.0/16->172.17.0.0/16: "} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("info output lacks %q:\n%s", want, out)
		}
	}
}

func TestTraceRejectsBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-trace binary")
	}
	bin := buildTrace(t)
	out, err := exec.Command(bin, "gen", "-no-such-flag").CombinedOutput()
	if err == nil {
		t.Fatalf("vpm-trace gen -no-such-flag exited zero\n%s", out)
	}
	if !bytes.Contains(out, []byte("flag provided but not defined")) {
		t.Fatalf("unknown flag not reported as such:\n%s", out)
	}
	if out, err := exec.Command(bin, "frobnicate").CombinedOutput(); err == nil {
		t.Fatalf("vpm-trace frobnicate exited zero\n%s", out)
	}
}
