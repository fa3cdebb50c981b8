package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFlagValidation runs the vpm-bench binary through its error exits:
// a -run or -json it rejects must be rejected before -o is created, so
// a typo cannot truncate a checked-in document.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-bench binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vpm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	kept := filepath.Join(dir, "kept.json")
	want := []byte("{\"experiment\": \"attacks\"}\n")
	if err := os.WriteFile(kept, want, 0o644); err != nil {
		t.Fatal(err)
	}
	// The mistyped name and every retired stopwatch run are unknown, and
	// the existing -o file survives byte for byte.
	for _, name := range []string{"throughputt", "throughput", "verify", "epochs", "segstore", "fleet"} {
		out, err := exec.Command(bin, "-run", name, "-o", kept).CombinedOutput()
		if err == nil {
			t.Fatalf("-run %s exited zero\n%s", name, out)
		}
		if !bytes.Contains(out, []byte("unknown experiment")) {
			t.Errorf("-run %s not reported as unknown:\n%s", name, out)
		}
		if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("-run %s: -o file is now %q (%v), want it untouched", name, got, err)
		}
	}

	fresh := filepath.Join(dir, "fresh.json")
	for _, name := range []string{"table1", "all"} {
		out, err := exec.Command(bin, "-run", name, "-json", "-o", fresh).CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte("-json is only supported")) {
			t.Errorf("-run %s -json: err %v, output:\n%s", name, err, out)
		}
		if _, err := os.Stat(fresh); !os.IsNotExist(err) {
			t.Fatalf("-run %s -json created -o before rejecting the flags (stat: %v)", name, err)
		}
	}

	if out, err := exec.Command(bin, "-run", "table1", "-o", fresh).CombinedOutput(); err != nil {
		t.Fatalf("-run table1: %v\n%s", err, out)
	}
	if got, err := os.ReadFile(fresh); err != nil || !bytes.Contains(got, []byte("Table 1")) {
		t.Fatalf("-run table1 -o wrote %q (%v)", got, err)
	}
}
