package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vpm/internal/core"
	"vpm/internal/engine"
	"vpm/internal/receipt"
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
	for _, cause := range []error{segstore.ErrCorruptManifest, segstore.ErrSegmentIntegrity, segstore.ErrSegmentVersion} {
		if !errors.Is(&BootError{Err: cause}, cause) {
			t.Fatalf("BootError does not unwrap to %v", cause)
		}
	}
	err := &BootError{Err: segstore.ErrCorruptManifest}
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

// TestEarlierFormatStoreRefusesBoot: a data directory the release
// before wrote (segments VPMSEG1, fixed-width receipts; segstore's
// fixture) is a boot refusal naming the format version, and the
// refusal changes none of its files.
func TestEarlierFormatStoreRefusesBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-node binary")
	}
	bin := buildNode(t)
	fixture := filepath.Join("..", "..", "internal", "segstore", "testdata", "vpmseg1")
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want[f.Name()] = data
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(bin, "-epochs", "1", "-interval", "50ms", "-data-dir", dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != bootExitCode {
		t.Fatalf("earlier-format store: err = %v, want exit %d\nstderr:\n%s", err, bootExitCode, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"VPMSEG1", this release reads "VPMSEG2"`) {
		t.Fatalf("stderr does not name the format versions:\n%s", stderr.String())
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range after {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want[f.Name()]) {
			t.Errorf("%s changed or appeared at boot", f.Name())
		}
	}
	if len(after) != len(want) {
		t.Errorf("%d files after the refused boot, %d before", len(after), len(want))
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
// profiles under /debug/pprof/ and the window status under
// /debug/epochs beside the query API.
func TestHTTPServesProfiles(t *testing.T) {
	store, _, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	hs := httptest.NewServer(nodeHandler(store, time.Second, &engine.EpochStatus{}))
	defer hs.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/api/v1/epochs", "/debug/epochs"} {
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

// TestDebugEpochsTracksTheWindow: a paced node's /debug/epochs follows
// the verifier as it goes — the held epochs ascend one by one, the last
// verified epoch advances and is never past the newest held one — and
// serving it does not get in the way of the clean shutdown.
func TestDebugEpochsTracksTheWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-node binary")
	}
	bin := buildNode(t)
	cmd := exec.Command(bin, "-epochs", "100000", "-interval", "50ms", "-rate", "20000", "-quiet",
		"-pace", "-http", "127.0.0.1:0", "-data-dir", t.TempDir())
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			<-done
		}
	}()

	addrRe := regexp.MustCompile(`query API on (http://\S+)`)
	deadline := time.Now().Add(30 * time.Second)
	var base string
	for base == "" {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no query API address on stderr within 30s:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	var first, last *uint64
	for last == nil || *last < *first+2 {
		if time.Now().After(deadline) {
			t.Fatalf("last verified epoch went from %v to %v in 30s, want two advances\nstderr:\n%s", first, last, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(base + "/debug/epochs")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Held []struct {
				Epoch        uint64   `json:"epoch"`
				MissingSeals []uint64 `json:"missing_seals"`
			} `json:"held"`
			LastVerified *uint64        `json:"last_verified"`
			Findings     map[string]int `json:"findings"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET /debug/epochs: %v", err)
		}
		if doc.LastVerified == nil {
			continue
		}
		for i := 1; i < len(doc.Held); i++ {
			if doc.Held[i].Epoch != doc.Held[i-1].Epoch+1 {
				t.Fatalf("held epochs %+v do not ascend one by one", doc.Held)
			}
		}
		if n := len(doc.Held); n == 0 || *doc.LastVerified > doc.Held[n-1].Epoch {
			t.Fatalf("last verified epoch %d, held %+v: want it no newer than the newest held", *doc.LastVerified, doc.Held)
		}
		if len(doc.Findings) != 0 {
			t.Fatalf("an honest node reports findings %v", doc.Findings)
		}
		if first == nil {
			first = doc.LastVerified
		}
		last = doc.LastVerified
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Fatalf("vpm-node exited non-zero after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("vpm-node did not shut down within 30s of SIGTERM\nstderr:\n%s", stderr.String())
	}
}

// TestEpochStatusReadsWhileVerifying: /debug/epochs is read by the
// server's goroutines while the verify step rewrites it; under -race
// the two must not touch the document unordered.
func TestEpochStatusReadsWhileVerifying(t *testing.T) {
	ver, err := engine.NewVerify(engine.Store{HOPs: []receipt.HOPID{1, 2}, Retention: 2}, engine.Checks{})
	if err != nil {
		t.Fatal(err)
	}
	ver.Window.Sink()(1, 0, nil, nil)
	status := &engine.EpochStatus{}
	hs := httptest.NewServer(nodeHandler(nil, time.Second, status))
	defer hs.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range core.EpochID(200) {
			status.Update(ver, e, ver.Window.Stats())
		}
	}()
	for range 50 {
		resp, err := http.Get(hs.URL + "/debug/epochs")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Held []struct {
				MissingSeals []receipt.HOPID `json:"missing_seals"`
			} `json:"held"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Held) > 0 && !slices.Equal(doc.Held[0].MissingSeals, []receipt.HOPID{2}) {
			t.Fatalf("held %+v: want epoch 0 waiting on HOP 2", doc.Held)
		}
	}
	<-done
}
