package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vpm/internal/segstore"
)

// lockedBuffer is safe to read while the child process writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildNode compiles the vpm-node binary into a temp dir.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vpm-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestSIGTERMCleanShutdown is the regression test for the daemon dying
// mid-epoch under systemd/docker stop: SIGTERM (not just SIGINT) must
// take the clean epoch-boundary shutdown path — finish the epoch in
// flight, verify every sealed epoch, and exit 0.
func TestSIGTERMCleanShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-node binary")
	}
	bin := buildNode(t)

	// Enough epochs that the run is guaranteed to still be in flight
	// when the signal lands. Per-epoch output stays on (no -quiet): the
	// first "epoch" line is the readiness signal that the handler is
	// installed and the run is mid-flight, so the test never races the
	// process's startup the way a fixed wall-clock sleep would under a
	// loaded CI machine.
	cmd := exec.Command(bin, "-epochs", "100000", "-interval", "50ms", "-rate", "20000")
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	ready := time.Now().Add(30 * time.Second)
	for !strings.Contains(stdout.String(), "epoch ") {
		if time.Now().After(ready) {
			cmd.Process.Kill()
			t.Fatalf("vpm-node never sealed an epoch within 30s\nstdout:\n%s\nstderr:\n%s",
				stdout.String(), stderr.String())
		}
		select {
		case err := <-done:
			t.Fatalf("vpm-node exited before the first epoch: %v\nstderr:\n%s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("vpm-node exited non-zero after SIGTERM: %v\nstdout:\n%s\nstderr:\n%s",
				err, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("vpm-node did not shut down within 30s of SIGTERM\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "clean shutdown") {
		t.Fatalf("no clean-shutdown line after SIGTERM:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "stopping at the next epoch boundary") {
		t.Fatalf("signal handler did not announce the boundary stop:\n%s", stderr.String())
	}
}

// TestBootErrorWrapsStoreErrors pins the typed failure path itself: a
// BootError unwraps to the segstore error that caused it, so callers
// (and the exit-code test below) can tell corruption from misuse.
func TestBootErrorWrapsStoreErrors(t *testing.T) {
	err := &BootError{Err: segstore.ErrCorruptManifest}
	if !errors.Is(err, segstore.ErrCorruptManifest) {
		t.Fatal("BootError does not unwrap to its cause")
	}
	//lint:ignore errwrap the boot prefix in the operator-facing message is itself the contract under test
	if !strings.Contains(err.Error(), "durable store boot failure") {
		t.Fatalf("BootError message %q lacks the boot prefix", err.Error())
	}
}

// TestCorruptStoreRefusesBoot is the operator-facing contract: a node
// pointed at a data directory it cannot trust must refuse to start with
// the dedicated boot exit code (3) rather than run with silently empty
// history (or crash with a generic 1).
func TestCorruptStoreRefusesBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-node binary")
	}
	bin := buildNode(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-epochs", "1", "-interval", "50ms", "-data-dir", dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("corrupt store: err = %v, want non-zero exit\nstderr:\n%s", err, stderr.String())
	}
	if code := exit.ExitCode(); code != bootExitCode {
		t.Fatalf("corrupt store: exit code %d, want %d\nstderr:\n%s", code, bootExitCode, stderr.String())
	}
	if !strings.Contains(stderr.String(), "durable store boot failure") {
		t.Fatalf("stderr does not name the boot failure:\n%s", stderr.String())
	}
}

// TestDiskFlagsRequireDataDir: the durable-store companion flags are
// meaningless without a store, and silently ignoring them would hide
// operator typos.
func TestDiskFlagsRequireDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-node binary")
	}
	bin := buildNode(t)
	for _, args := range [][]string{
		{"-http", "127.0.0.1:0"},
		{"-disk-retention", "4"},
		{"-serve-only"},
	} {
		cmd := exec.Command(bin, append([]string{"-epochs", "1"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v without -data-dir: err = %v, want exit 1\nstderr:\n%s", args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "need -data-dir") {
			t.Fatalf("%v: stderr does not explain the missing -data-dir:\n%s", args, stderr.String())
		}
	}
}

// TestHTTPServesProfiles: the -http surface serves the runtime
// profiles under /debug/pprof/ beside the query API.
func TestHTTPServesProfiles(t *testing.T) {
	store, _, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	hs := httptest.NewServer(nodeHandler(store, time.Second))
	defer hs.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/api/v1/epochs"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, want 200", path, resp.Status)
		}
	}
}
