// Receipts over HTTP: the dissemination layer (paper Assumption 2).
//
// Every HOP publishes its receipts as ed25519-signed bundles on a
// local HTTP server (the paper's "administrative web-site"
// realization). A verifier streams the bundles — each one is
// signature-checked as it comes off the wire and ingested into the
// verifier's indexed receipt store immediately, so no interval's
// receipts ever sit fully buffered — rejects a tampered server, and
// then runs the standard Figure 1 verification on the authenticated
// receipts.
//
// Run with: go run ./examples/receipts-over-http
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"vpm"
)

func main() {
	// 1. Simulate the Figure 1 world with a lossy X.
	traceCfg := vpm.TraceConfig{
		Seed:       51,
		DurationNS: int64(300e6),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}
	path := vpm.Fig1Path(53)
	loss, err := vpm.GilbertElliottLoss(0.12, 8, 59)
	if err != nil {
		log.Fatal(err)
	}
	path.Domains[path.DomainIndex("X")].Loss = loss
	dep, err := vpm.NewDeployment(path, traceCfg.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := path.Run(pkts, dep.Observers()); err != nil {
		log.Fatal(err)
	}
	dep.Finalize()

	// 2. Each HOP signs and serves its receipts on its own listener.
	registry := vpm.KeyRegistry{}
	urls := map[vpm.HOPID]string{}
	var servers []*http.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for hop, proc := range dep.Processors {
		var seed [32]byte
		seed[0] = byte(hop)
		signer := vpm.NewBundleSigner(seed)
		srv := vpm.NewBundleServer(hop, signer)
		srv.PublishEpoch(0, proc.CombinedSamples(), proc.Aggs)
		registry[hop] = signer.Public()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
		servers = append(servers, hs)
		go func() { _ = hs.Serve(ln) }()
		urls[hop] = "http://" + ln.Addr().String()
		fmt.Printf("HOP%-2d serving signed receipts at %s\n", hop, ln.Addr())
	}

	// 3. The verifier streams and authenticates everything: FetchEach
	// hands over one verified bundle at a time, and Ingest files its
	// receipts into the verifier's indexed store on the spot. The
	// verifier is restricted to the foreground path key, so any other
	// traffic in the bundles would be ingested but never read.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := &vpm.BundleClient{Registry: registry}
	v := vpm.NewVerifierFor(dep.Layout(), key)
	v.SetConfig(dep.VerifierConfig())
	fetched := 0
	for hop, url := range urls {
		_, err := client.FetchEach(ctx, url, hop, 0, func(b *vpm.ReceiptBundle) error {
			v.Ingest(b)
			fetched++
			return nil
		})
		if err != nil {
			log.Fatalf("streaming from HOP%d: %v", hop, err)
		}
	}
	fmt.Printf("\nstreamed and authenticated %d bundles from %d HOPs\n", fetched, len(urls))

	// 4. A forged server is rejected outright.
	var evilSeed [32]byte
	evilSeed[0] = 0xEE
	evil := vpm.NewBundleServer(4, vpm.NewBundleSigner(evilSeed))
	evil.PublishEpoch(0, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: evil, ReadHeaderTimeout: 10 * time.Second}
	servers = append(servers, hs)
	go func() { _ = hs.Serve(ln) }()
	if _, err := client.Fetch(ctx, "http://"+ln.Addr().String(), 4, 0); err != nil {
		fmt.Printf("forged HOP4 server rejected as expected: %v\n", err)
	} else {
		log.Fatal("forged server was accepted — signature verification broken")
	}

	// 5. Verification proceeds on the authenticated receipts.
	rep, err := v.DomainReport("X", vpm.DefaultQuantiles, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nX's loss from authenticated receipts: %.2f%% over %d aggregates\n",
		rep.Loss.Rate()*100, len(rep.Loss.Pairs))
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
}
