package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// buildSim compiles the vpm-sim binary into a temp dir.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vpm-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

var linkVerdict = regexp.MustCompile(`(?m)^  link (HOP\d+-HOP\d+): (consistent|\d+ violations)`)

// TestSimVerdicts runs the one-shot Fig1 simulation end to end: an
// honest lossy domain X leaves all four links consistent, and X
// shifting the blame for its loss downstream is exposed on its egress
// link — HOP5-HOP6 — and nowhere else.
func TestSimVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-sim binary")
	}
	bin := buildSim(t)
	cases := []struct {
		name     string
		lie      string
		violated string // the one link with violations; empty: none
	}{
		{"honest", "none", ""},
		{"blame-shift", "blame-shift", "HOP5-HOP6"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, "-duration", "300ms", "-rate", "50000", "-loss-x", "0.25", "-lie", c.lie).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, out)
		}
		links := linkVerdict.FindAllSubmatch(out, -1)
		if len(links) != 4 {
			t.Fatalf("%s: %d link verdicts, want 4\n%s", c.name, len(links), out)
		}
		for _, m := range links {
			link, consistent := string(m[1]), string(m[2]) == "consistent"
			if consistent == (link == c.violated) {
				t.Errorf("%s: link %s: %s\n%s", c.name, link, m[2], out)
			}
		}
	}
}

func TestSimRejectsUnknownFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-sim binary")
	}
	out, err := exec.Command(buildSim(t), "-no-such-flag").CombinedOutput()
	if err == nil {
		t.Fatalf("vpm-sim -no-such-flag exited zero\n%s", out)
	}
	if !bytes.Contains(out, []byte("flag provided but not defined")) {
		t.Fatalf("unknown flag not reported as such:\n%s", out)
	}
}
