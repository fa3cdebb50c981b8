package e2e

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vpm/internal/segstore"
)

// The knobs every child process shares. The workload is deterministic
// in (seed, rate, interval, epochs), which is what makes a separate
// uninterrupted run a valid oracle for the killed-and-recovered one.
const (
	e2eEpochs   = 8
	e2eInterval = "100ms"
	e2eSeed     = "42"
	e2eRate     = "20000"
	killRounds  = 3
)

// buildVPMNode compiles the real binary once per test run.
func buildVPMNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vpm-node")
	cmd := exec.Command("go", "build", "-o", bin, "vpm/cmd/vpm-node")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building vpm-node: %v\n%s", err, out)
	}
	return bin
}

// nodeCmd assembles a vpm-node invocation against dir.
func nodeCmd(bin, dir string, extra ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	args := []string{
		"-epochs", fmt.Sprint(e2eEpochs), "-interval", e2eInterval,
		"-seed", e2eSeed, "-rate", e2eRate, "-quiet", "-data-dir", dir,
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	return cmd, &stdout, &stderr
}

// runToCompletion runs one uninterrupted invocation and requires exit 0.
func runToCompletion(t *testing.T, bin, dir string, extra ...string) (string, string) {
	t.Helper()
	cmd, stdout, stderr := nodeCmd(bin, dir, extra...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("vpm-node %v: %v\nstdout:\n%s\nstderr:\n%s", cmd.Args, err, stdout, stderr)
	}
	return stdout.String(), stderr.String()
}

// waitForManifest polls until the node's first durable seal commits a
// MANIFEST into dir. Readiness polling instead of a fixed sleep: the
// child's startup cost (binary load, store creation, first epoch) is
// wildly variable under -race on a loaded CI machine, and a wall-clock
// wait either flakes or overshoots.
func waitForManifest(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no MANIFEST committed within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// manifestLastSealed reads the killed process's MANIFEST directly —
// without opening the store, so the surviving bytes stay exactly as the
// crash left them — and returns the last durably sealed epoch.
func manifestLastSealed(t *testing.T, dir string) (uint64, bool) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	entries, err := segstore.DecodeManifest(raw)
	if err != nil {
		// A record torn mid-append at the log's tail is possible, and
		// DecodeManifest reads past it as Open does; a record that fails
		// its checksum is not — every append is whole or cut short.
		t.Fatalf("committed MANIFEST does not decode: %v", err)
	}
	if len(entries) == 0 {
		return 0, false
	}
	return entries[len(entries)-1].ToEpoch, true
}

// storeReports opens dir and returns every persisted verdict, keyed by
// epoch, plus the sealed-epoch list.
func storeReports(t *testing.T, dir string) (map[uint64][]byte, []uint64) {
	t.Helper()
	s, _, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatalf("opening %s: %v", dir, err)
	}
	defer s.Close()
	out := make(map[uint64][]byte)
	for _, epoch := range s.ReportEpochs() {
		rep, err := s.Report(epoch)
		if err != nil {
			t.Fatalf("reading epoch %d report: %v", epoch, err)
		}
		out[epoch] = rep
	}
	return out, s.SealedEpochs()
}

// TestKill9RecoveryMatchesUninterruptedRun is the tentpole's proof:
// kill -9 a paced vpm-node at a random point mid-run, restart it, and
// require (a) boot recovers exactly the epochs the manifest had
// durably sealed, (b) the restarted run completes with exit 0, and
// (c) the union of persisted verdicts is byte-identical to an
// uninterrupted reference run — nothing lost, nothing double-counted,
// nothing silently recomputed differently.
func TestKill9RecoveryMatchesUninterruptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly runs the vpm-node binary")
	}
	bin := buildVPMNode(t)

	// The oracle: same binary, same knobs, never interrupted.
	refDir := filepath.Join(t.TempDir(), "ref")
	runToCompletion(t, bin, refDir)
	refReports, refSealed := storeReports(t, refDir)
	if len(refReports) == 0 || len(refSealed) == 0 {
		t.Fatalf("reference run persisted nothing (reports %d, sealed %v)", len(refReports), refSealed)
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < killRounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")

			// Paced run: one epoch per 100ms of wall clock, so the kill
			// delay below lands mid-run, usually mid-epoch. The random
			// delay is the point of the sweep — each round crashes at a
			// different phase of the epoch cycle, sometimes before the
			// first durable seal — but it is anchored to the node having
			// booted (its data dir existing) rather than to cmd.Start, so
			// a slow binary launch under -race cannot silently turn every
			// round into a kill-before-boot no-op.
			cmd, _, stderr := nodeCmd(bin, dir, "-pace")
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			booted := time.Now().Add(30 * time.Second)
			for {
				if _, err := os.Stat(dir); err == nil {
					break
				}
				if time.Now().After(booted) {
					cmd.Process.Kill()
					t.Fatal("node never created its data dir within 30s")
				}
				time.Sleep(5 * time.Millisecond)
			}
			delay := time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
			t.Logf("killing %v after boot", delay)
			time.Sleep(delay)
			if err := cmd.Process.Kill(); err != nil { // SIGKILL: no handler runs
				t.Fatal(err)
			}
			err := cmd.Wait()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("killed process reported %v\nstderr:\n%s", err, stderr)
			}

			durableLast, hadDurable := manifestLastSealed(t, dir)
			if hadDurable {
				t.Logf("crash left epochs through %d durably sealed", durableLast)
			} else {
				t.Log("crash landed before the first durable seal")
			}

			// Restart, unpaced: boot must recover, then re-execute the
			// deterministic stream to completion.
			_, bootLog := runToCompletion(t, bin, dir)
			if !strings.Contains(bootLog, "recovered") {
				t.Fatalf("restart did not report recovery:\n%s", bootLog)
			}
			wantLast := "none"
			if hadDurable {
				wantLast = fmt.Sprint(durableLast)
			}
			if want := fmt.Sprintf("last sealed epoch %s", wantLast); !strings.Contains(bootLog, want) {
				t.Fatalf("restart recovered to the wrong epoch: want %q in:\n%s", want, bootLog)
			}

			// Union of the two runs' verdicts == the uninterrupted run's.
			gotReports, gotSealed := storeReports(t, dir)
			if fmt.Sprint(gotSealed) != fmt.Sprint(refSealed) {
				t.Fatalf("sealed epochs %v, reference %v", gotSealed, refSealed)
			}
			if len(gotReports) != len(refReports) {
				t.Fatalf("%d reports after recovery, reference has %d", len(gotReports), len(refReports))
			}
			for epoch, want := range refReports {
				got, ok := gotReports[epoch]
				if !ok {
					t.Fatalf("epoch %d verdict missing after recovery", epoch)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("epoch %d verdict differs from the uninterrupted run", epoch)
				}
			}
		})
	}
}

var apiAddrRE = regexp.MustCompile(`query API on (http://[^\s]+)`)

// syncBuffer is a mutex-guarded buffer safe to read while the child
// process is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeOnlyServesRecoveredVerdicts closes the loop across the
// process boundary: after a kill and a recovering restart, a third
// invocation in -serve-only mode must serve the persisted verdicts
// over HTTP byte-identical to what is on disk.
func TestServeOnlyServesRecoveredVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly runs the vpm-node binary")
	}
	bin := buildVPMNode(t)
	dir := filepath.Join(t.TempDir(), "data")

	// A paced run killed mid-flight, then a recovering completion. The
	// kill waits for the first durable seal (the MANIFEST landing on
	// disk) rather than a wall-clock delay, so the serve-only phase is
	// guaranteed recovered verdicts to serve even on a machine where
	// startup is slow.
	cmd, _, _ := nodeCmd(bin, dir, "-pace")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForManifest(t, dir)
	cmd.Process.Kill()
	cmd.Wait()
	runToCompletion(t, bin, dir)
	wantReports, wantSealed := storeReports(t, dir)

	// Audit mode: serve the store without running anything. Its stderr
	// is polled while the process runs, so it needs the locked buffer.
	serve, _, _ := nodeCmd(bin, dir, "-serve-only", "-http", "127.0.0.1:0")
	serveErr := &syncBuffer{}
	serve.Stderr = serveErr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		serve.Process.Signal(syscall.SIGTERM)
		serve.Wait()
	}()

	// The listener address is announced on stderr once the store is open.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := apiAddrRE.FindStringSubmatch(serveErr.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("serve-only never announced its address:\nstderr:\n%s", serveErr)
	}

	resp, err := http.Get(base + "/api/v1/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/verdicts: %d\n%s", resp.StatusCode, body)
	}
	var verdicts struct {
		Epochs  []uint64          `json:"epochs"`
		Reports []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body, &verdicts); err != nil {
		t.Fatalf("decoding verdicts: %v\n%s", err, body)
	}
	if len(verdicts.Epochs) != len(wantSealed) {
		t.Fatalf("API served %d epochs, store holds %d", len(verdicts.Epochs), len(wantSealed))
	}
	for i, epoch := range verdicts.Epochs {
		if !bytes.Equal(verdicts.Reports[i], wantReports[epoch]) {
			t.Fatalf("epoch %d served over HTTP differs from the stored verdict", epoch)
		}
	}
}
