package e2e

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"vpm/internal/dissem"
	"vpm/internal/fleet"
)

// These tests pin the daemons' HTTP lifecycle: a peer that opens a TCP
// connection and never sends a request (or never finishes its headers)
// must not block shutdown. Go's http.Server.Shutdown waits for
// connections in StateNew indefinitely unless the server carries read
// timeouts and the caller bounds the drain — exactly the bug these
// binaries had with `defer srv.Shutdown(context.Background())` and
// bare `http.ListenAndServe`.

// waitExit requires the process to exit with code 0 within d.
func waitExit(t *testing.T, cmd *exec.Cmd, d time.Duration, stderr fmt.Stringer) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v\nstderr:\n%s", err, stderr)
		}
	case <-time.After(d):
		cmd.Process.Kill()
		t.Fatalf("daemon still running %v after SIGTERM — a stalled connection blocked shutdown\nstderr:\n%s", d, stderr)
	}
}

// stallConn opens a raw TCP connection to addr and leaves it open with
// an unfinished request: headers started, never terminated. The server
// sees a connection that is neither idle nor a complete request.
func stallConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /hops HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	return conn
}

// scrapeAddr polls a child's stderr until re matches, returning the
// first capture group.
func scrapeAddr(t *testing.T, buf *syncBuffer, re *regexp.Regexp, what string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never announced its address:\nstderr:\n%s", what, buf)
	return ""
}

// TestNodeShutdownNotBlockedByStalledConnection: vpm-node in
// serve-only mode must exit cleanly on SIGTERM even while a client
// holds an open connection with unfinished headers.
func TestNodeShutdownNotBlockedByStalledConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-node binary")
	}
	bin := buildVPMNode(t)
	dir := filepath.Join(t.TempDir(), "data")
	runToCompletion(t, bin, dir) // populate a store to serve

	serve, _, _ := nodeCmd(bin, dir, "-serve-only", "-http", "127.0.0.1:0")
	stderr := &syncBuffer{}
	serve.Stderr = stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()
	base := scrapeAddr(t, stderr, apiAddrRE, "serve-only node")

	// One healthy request proves the server is actually up...
	resp, err := http.Get(base + "/api/v1/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// ...then a stalled connection tries to pin it open.
	conn := stallConn(t, strings.TrimPrefix(base, "http://"))
	defer conn.Close()

	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Well past the 5s drain bound, far under the pre-fix forever.
	waitExit(t, serve, 20*time.Second, stderr)
}

var fleetFinishedRE = regexp.MustCompile(`collector \d+ (finished)`)

// TestCollectorShutdownDrainsAndExitsZero: a `vpm-fleet collect`
// daemon must announce, serve, and on SIGTERM drain within its deadline
// and exit 0 — with a stalled connection open, which a bare
// ListenAndServe+log.Fatal daemon could never do (no signal handling at
// all, exit always nonzero).
func TestCollectorShutdownDrainsAndExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vpm-fleet binary")
	}
	bin := buildVPMFleet(t)
	cmd := exec.Command(bin, "collect", "-spec", fleetSpec().Encode(), "-index", "0", "-addr", "127.0.0.1:0")
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := scrapeAddr(t, stderr, fleetAddrRE, "vpm-fleet collect")
	scrapeAddr(t, stderr, fleetFinishedRE, "vpm-fleet collect (finishing its run)")

	resp, err := http.Get(base + "/hops")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /hops: %d", resp.StatusCode)
	}
	var hops []fleet.HopInfo
	err = json.NewDecoder(resp.Body).Decode(&hops)
	resp.Body.Close()
	if err != nil || len(hops) == 0 {
		t.Fatalf("GET /hops: %d HOPs, %v", len(hops), err)
	}

	// The framed payload feed, spoken by the real binary: a registry
	// built from the advertised keys authenticates and decodes the feed
	// of the first HOP's domain, one bundle per HOP of the domain each
	// epoch.
	reg := make(dissem.Registry, len(hops))
	for _, h := range hops {
		pub, err := hex.DecodeString(h.Pub)
		if err != nil || len(pub) != ed25519.PublicKeySize {
			t.Fatalf("HOP %d advertises key %q: %v", h.HOP, h.Pub, err)
		}
		reg[h.HOP] = pub
	}
	hop := hops[0].HOP
	domain := reg.Group(hop)
	client := &dissem.Client{Registry: reg}
	bundles, err := client.Fetch(context.Background(), base+hops[0].Feed, hop, 0)
	if err != nil {
		t.Fatalf("fetching %s from vpm-fleet collect: %v", hops[0].Feed, err)
	}
	receipts := 0
	for i, b := range bundles {
		if b.Origin != domain[i%len(domain)] {
			t.Fatalf("%s: bundle %d from %v, want the domain's HOPs %v in turn", hops[0].Feed, i, b.Origin, domain)
		}
		receipts += len(b.Samples) + len(b.Aggs)
	}
	if receipts == 0 || len(bundles)%len(domain) != 0 {
		t.Fatalf("%s: %d bundles for %d HOPs, %d receipts — want whole payloads, at least one with receipts", hops[0].Feed, len(bundles), len(domain), receipts)
	}

	conn := stallConn(t, strings.TrimPrefix(base, "http://"))
	defer conn.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, cmd, 20*time.Second, stderr)
	if !strings.Contains(stderr.String(), "clean shutdown") {
		t.Fatalf("no clean-shutdown line in stderr:\n%s", stderr)
	}
}
