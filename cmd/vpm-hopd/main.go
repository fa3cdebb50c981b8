// Command vpm-hopd is the receipt-dissemination daemon: it runs a VPM
// deployment over a trace (generated or loaded), then serves every
// HOP's ed25519-signed receipt bundles over HTTP — the paper's
// "administrative web-site" realization of Assumption 2.
//
// Endpoints:
//
//	GET /hops                    — JSON list of HOPs and their public keys (hex)
//	GET /hop/{id}/receipts?since=N — signed bundles from HOP id (dissem's framed feed)
//
// Usage:
//
//	vpm-hopd [-addr :8407] [-trace file.vpmtrc] [-duration 1s] [-rate 100000] [-seed 1]
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8407", "listen address")
		traceFile = flag.String("trace", "", "trace file (empty: generate synthetically)")
		duration  = flag.Duration("duration", time.Second, "synthetic trace duration")
		rate      = flag.Float64("rate", 100000, "synthetic trace packet rate")
		seed      = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()

	var pkts []packet.Packet
	tc := trace.Config{
		Seed:       *seed,
		DurationNS: duration.Nanoseconds(),
		Paths:      []trace.PathSpec{trace.DefaultPath(*rate)},
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		check(err)
		pkts, err = trace.Read(f)
		f.Close()
		check(err)
	} else {
		var err error
		pkts, err = trace.Generate(tc)
		check(err)
	}

	path := netsim.Fig1Path(*seed + 100)
	dep, err := core.NewDeployment(path, tc.Table(), core.DefaultDeployConfig())
	check(err)
	_, err = path.Run(pkts, dep.Observers())
	check(err)
	dep.Finalize()

	// One signed bundle server per HOP.
	servers := make(map[receipt.HOPID]*dissem.Server)
	type hopInfo struct {
		HOP       uint32 `json:"hop"`
		PublicKey string `json:"public_key"`
	}
	var infos []hopInfo
	var hops []int
	for id := range dep.Processors {
		hops = append(hops, int(id))
	}
	sort.Ints(hops)
	for _, hi := range hops {
		id := receipt.HOPID(hi)
		var keySeed [32]byte
		keySeed[0] = byte(*seed)
		keySeed[1] = byte(hi)
		signer := dissem.NewSigner(keySeed)
		srv := dissem.NewServer(id, signer)
		proc := dep.Processors[id]
		srv.Publish(proc.CombinedSamples(), proc.Aggs)
		servers[id] = srv
		infos = append(infos, hopInfo{
			HOP:       uint32(id),
			PublicKey: hex.EncodeToString(signer.Public()),
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/hops", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(infos); err != nil {
			log.Printf("encoding /hops: %v", err)
		}
	})
	mux.HandleFunc("/hop/", func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/hop/"), "/")
		if len(parts) != 2 || parts[1] != "receipts" {
			http.NotFound(w, r)
			return
		}
		id, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			http.Error(w, "bad HOP id", http.StatusBadRequest)
			return
		}
		srv, ok := servers[receipt.HOPID(id)]
		if !ok {
			http.NotFound(w, r)
			return
		}
		srv.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", *addr)
	check(err)
	// A stalled peer must not be able to pin a connection open forever,
	// and a signal must drain in-flight fetches instead of dropping
	// them mid-bundle.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("vpm-hopd: processed %d packets; serving receipts for %d HOPs on %s", len(pkts), len(servers), ln.Addr())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		check(fmt.Errorf("serve: %w", err))
	case sig := <-sigs:
		log.Printf("vpm-hopd: %v — draining", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("vpm-hopd: drain deadline exceeded — closing")
		srv.Close()
	}
	log.Printf("vpm-hopd: clean shutdown")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpm-hopd:", err)
		os.Exit(1)
	}
}
