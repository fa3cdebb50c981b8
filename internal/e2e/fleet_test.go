package e2e

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"vpm/internal/fleet"
)

// fleetSpec is the shared world every process in the black-box fleet
// test derives independently from the spec JSON. Small enough to run
// under -race in CI, large enough that a paced collection is still
// in flight when the verifier is killed.
func fleetSpec() fleet.Spec {
	return fleet.Spec{
		Seed:       42,
		Domains:    8,
		ExtraLinks: 6,
		Keys:       64,
		Epochs:     3,
		IntervalNS: 50_000_000,
		RatePPS:    60_000,
		Collectors: 2,
	}
}

func buildVPMFleet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vpm-fleet")
	cmd := exec.Command("go", "build", "-o", bin, "vpm/cmd/vpm-fleet")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building vpm-fleet: %v\n%s", err, out)
	}
	return bin
}

var fleetAddrRE = regexp.MustCompile(`collector \d+ serving on (http://[^\s]+)`)

// startFleetCollector spawns one real collector process and scrapes
// its announced address. Pacing stretches the simulation over wall
// time so the kill below lands while collection is still in flight.
func startFleetCollector(t *testing.T, bin string, spec fleet.Spec, index int, pace time.Duration) (*exec.Cmd, string) {
	t.Helper()
	args := []string{"collect",
		"-spec", spec.Encode(),
		"-index", strconv.Itoa(index),
		"-addr", "127.0.0.1:0",
		"-chunk", "512",
	}
	if pace > 0 {
		args = append(args, "-pace", pace.String())
	}
	cmd := exec.Command(bin, args...)
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd, scrapeAddr(t, stderr, fleetAddrRE, fmt.Sprintf("collector %d", index))
}

func fleetVerifyCmd(bin string, spec fleet.Spec, shards, shard int, urls []string, out string) *exec.Cmd {
	return exec.Command(bin, "verify",
		"-spec", spec.Encode(),
		"-shards", strconv.Itoa(shards),
		"-shard", strconv.Itoa(shard),
		"-collectors", strings.Join(urls, ","),
		"-out", out,
	)
}

// TestFleetVerifierKillAndRestartConverges is the black-box fleet
// proof: real collector and verifier binaries over real HTTP, one
// verifier shard SIGKILLed while collection is still streaming, then
// restarted from nothing. Because collectors retain every bundle,
// the restarted shard replays the feeds from cursor zero and the
// merged union must be byte-identical to the in-process single-run
// reference — crash recovery without a recovery protocol.
func TestFleetVerifierKillAndRestartConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-fleet binary")
	}
	bin := buildVPMFleet(t)
	spec := fleetSpec()

	// The oracle: one in-process whole-world run.
	refWorld, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	refReports, err := fleet.RunReference(refWorld, 0)
	if err != nil {
		t.Fatal(err)
	}
	refEnc, err := fleet.EncodeReports(refReports)
	if err != nil {
		t.Fatal(err)
	}

	// Paced collectors: ~512 packet slots per 20ms keeps the stream
	// alive for roughly a second of wall clock.
	urls := make([]string, spec.Collectors)
	for i := range urls {
		_, urls[i] = startFleetCollector(t, bin, spec, i, 20*time.Millisecond)
	}

	dir := t.TempDir()
	const shards = 2
	parts := make([]string, shards)
	cmds := make([]*exec.Cmd, shards)
	for s := range parts {
		parts[s] = filepath.Join(dir, fmt.Sprintf("part-%d.json", s))
		cmds[s] = fleetVerifyCmd(bin, spec, shards, s, urls, parts[s])
		var stderr bytes.Buffer
		cmds[s].Stderr = &stderr
		if err := cmds[s].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Kill shard 1 while the collectors are still streaming epochs.
	time.Sleep(150 * time.Millisecond)
	if err := cmds[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = cmds[1].Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("killed verifier reported %v", err)
	}

	// Restart it cold: no state survives, the part file was never
	// written; the shard refetches everything and writes as if the
	// crash never happened.
	restarted := fleetVerifyCmd(bin, spec, shards, 1, urls, parts[1])
	var restartErr bytes.Buffer
	restarted.Stderr = &restartErr
	if err := restarted.Run(); err != nil {
		t.Fatalf("restarted verifier: %v\nstderr:\n%s", err, restartErr.String())
	}
	if err := cmds[0].Wait(); err != nil {
		t.Fatalf("surviving verifier: %v", err)
	}

	outs := make([]*fleet.ShardOutput, shards)
	for s, p := range parts {
		if outs[s], err = fleet.ReadShardFile(p); err != nil {
			t.Fatalf("part %d: %v", s, err)
		}
	}
	merged, err := fleet.MergeShardOutputs(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(refEnc) {
		t.Fatalf("merged %d epochs, reference has %d", len(merged), len(refEnc))
	}
	for e := range merged {
		if !bytes.Equal(merged[e], refEnc[e]) {
			t.Fatalf("epoch %d union diverges from single-process reference after kill+restart:\n got %s\nwant %s",
				e, merged[e], refEnc[e])
		}
	}
	if got, want := fleet.Fingerprint(merged), fleet.Fingerprint(refEnc); got != want {
		t.Fatalf("fingerprint %s after kill+restart, reference %s", got, want)
	}
}

// TestFleetSupervisorSweep drives `vpm-fleet run`, the supervisor CI's
// fleet job calls: real collectors, the verifier tier at two widths,
// the single-process reference check, and one fingerprint at every
// width; a tier width below one is refused by name.
func TestFleetSupervisorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-fleet binary")
	}
	bin := buildVPMFleet(t)

	cmd := exec.Command(bin, "run", "-spec", fleetSpec().Encode(), "-verifiers", "1,2", "-check", "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("vpm-fleet run: %v\nstderr:\n%s", err, stderr.String())
	}
	var rows []fleet.BenchRow
	if err := json.Unmarshal(stdout.Bytes(), &rows); err != nil {
		t.Fatalf("decoding rows: %v\n%s", err, stdout.String())
	}
	if len(rows) != 2 || rows[0].Procs != 1 || rows[1].Procs != 2 {
		t.Fatalf("rows %+v, want one per width 1,2", rows)
	}
	if rows[0].Fingerprint == "" || rows[0].Fingerprint != rows[1].Fingerprint {
		t.Fatalf("fingerprints %q and %q, want equal and non-empty", rows[0].Fingerprint, rows[1].Fingerprint)
	}

	out, err := exec.Command(bin, "run", "-spec", fleetSpec().Encode(), "-verifiers", "0").CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte(`bad -verifiers entry "0"`)) {
		t.Fatalf("-verifiers 0: err %v, output:\n%s", err, out)
	}
}

// ciFleetSpec is the world of CI's fleet byte-identity sweep.
const ciFleetSpec = `{"seed":1,"domains":100,"extra_links":50,"keys":16384,"epochs":4,"interval_ns":200000000,"rate_pps":40960,"collectors":2}`

// runGroup runs bin with args in a process group of its own, which its
// children inherit, and returns its combined output and exit error once
// it has exited and a signal 0 to the group finds nobody: a child it
// started must not outlive it.
func runGroup(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	// A file, not a pipe: a child that outlived the supervisor would hold
	// a pipe open and Wait would never return.
	out, err := os.Create(filepath.Join(t.TempDir(), "output"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid
	runErr := cmd.Wait()
	output := func() string {
		b, _ := os.ReadFile(out.Name())
		return string(b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !errors.Is(syscall.Kill(-pgid, 0), syscall.ESRCH) {
		if time.Now().After(deadline) {
			syscall.Kill(-pgid, syscall.SIGKILL)
			t.Fatalf("children of the failed supervisor still running 10s after it exited\n%s", output())
		}
		time.Sleep(50 * time.Millisecond)
	}
	return output(), runErr
}

// TestFleetSupervisorFailureStopsChildren: a supervisor that fails after
// its collectors are up — the one verifier shard of the first width
// cannot write its part, whose path is a directory — exits non-zero and
// leaves no child behind.
func TestFleetSupervisorFailureStopsChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-fleet binary")
	}
	bin := buildVPMFleet(t)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "part-0-of-1.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	output, err := runGroup(t, bin, "run", "-spec", ciFleetSpec, "-verifiers", "1,2", "-check", "-dir", dir)
	if err == nil {
		t.Fatalf("supervisor exited 0 with an unwritable part file\n%s", output)
	}
	if !strings.Contains(output, "serving on") || !strings.Contains(output, "verifier 0/1:") {
		t.Fatalf("supervisor did not fail in its verifier tier, after its collectors started\n%s", output)
	}
}

// TestFleetSupervisorRefusesMissingDir: `vpm-fleet run -dir` naming no
// directory fails before any work starts — no collector is ever started
// (none announces itself, and none is left in the process group) — and
// the error names the path.
func TestFleetSupervisorRefusesMissingDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-fleet binary")
	}
	bin := buildVPMFleet(t)
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing"), file} {
		output, err := runGroup(t, bin, "run", "-spec", ciFleetSpec, "-verifiers", "1", "-check", "-dir", path)
		if err == nil {
			t.Fatalf("-dir %s: supervisor exited 0\n%s", path, output)
		}
		if !strings.Contains(output, path) || strings.Contains(output, "serving on") {
			t.Fatalf("-dir %s: want an error naming the path before any collector starts, got\n%s", path, output)
		}
	}
}

var shardAddrRE = regexp.MustCompile(`shard \d+/\d+ serving on (http://[^\s]+)`)

// TestFleetShardServesProfiles: `vpm-fleet verify -http` serves the
// runtime profiles and /debug/epochs while the shard runs (paced
// collectors keep it running, and the listener closes when it exits),
// and the shard then finishes as it would without them.
func TestFleetShardServesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-fleet binary")
	}
	bin := buildVPMFleet(t)
	spec := fleetSpec()
	urls := make([]string, spec.Collectors)
	for i := range urls {
		_, urls[i] = startFleetCollector(t, bin, spec, i, 20*time.Millisecond)
	}

	cmd := fleetVerifyCmd(bin, spec, 1, 0, urls, filepath.Join(t.TempDir(), "part-0.json"))
	cmd.Args = append(cmd.Args, "-http", "127.0.0.1:0")
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() { cmd.Process.Kill() })

	base := scrapeAddr(t, stderr, shardAddrRE, "vpm-fleet verify -http")
	for path, want := range map[string]string{"/debug/pprof/cmdline": "verify", "/debug/epochs": `"findings"`} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("fetching the shard's %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(want)) {
			t.Fatalf("%s: status %d, err %v, body %q", path, resp.StatusCode, err, body)
		}
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("shard: %v\nstderr:\n%s", err, stderr)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("shard still running after 60s\nstderr:\n%s", stderr)
	}
}
