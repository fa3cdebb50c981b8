package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
	"vpm/internal/segstore"
	"vpm/internal/trace"
)

const (
	testIntervalNS = int64(50_000_000)
	testEpochs     = 4
)

// testWorld is one freshly built small world: collector state and the
// simulator's RNG are single-use, so every run builds its own.
type testWorld struct {
	dep    *core.Deployment
	hops   []receipt.HOPID
	sim    engine.Sim
	gen    *trace.Generator
	checks engine.Checks
}

func fig1World(t *testing.T) testWorld {
	t.Helper()
	tc := trace.Config{Seed: 5, DurationNS: testEpochs * testIntervalNS, Paths: []trace.PathSpec{trace.DefaultPath(20000)}}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(netsim.Fig1Path(1005), tc.Table(), core.DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	return testWorld{dep: dep, hops: dep.HOPs(), sim: sim, gen: gen,
		checks: engine.Checks{Config: dep.VerifierConfig(), Layout: dep.Layout()}}
}

func closWorld(t *testing.T) testWorld {
	t.Helper()
	keys := netsim.TopoKeys(4)
	tc := trace.Config{Seed: 21, DurationNS: testEpochs * testIntervalNS}
	for _, k := range keys {
		tc.Paths = append(tc.Paths, trace.PathSpec{SrcPrefix: k.Src, DstPrefix: k.Dst,
			RatePPS: 10000, ActiveFlows: 8, MeanFlowPkts: 50, UDPFraction: 0.2})
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		t.Fatal(err)
	}
	topo := netsim.ClosTopology(9, 2, 2, keys)
	dc := core.DefaultDeployConfig()
	dc.MarkerRate, dc.Default.SampleRate, dc.Default.AggRate = 0.004, 0.05, 0.001
	dep, err := core.NewTopoDeployment(topo, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(dep.Topo, dep.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	return testWorld{dep: dep, hops: dep.HOPs(), sim: sim, gen: gen,
		checks: engine.Checks{Config: dep.VerifierConfig(), KeyLayouts: dep.KeyLayouts()}}
}

func testSigner(h receipt.HOPID) *dissem.Signer {
	var seed [32]byte
	seed[0] = byte(h)
	return dissem.NewSigner(seed)
}

// pairedSigner gives hops[2k] and hops[2k+1] one key — two-HOP domains,
// each sealed epoch of a pair one signed payload.
func pairedSigner(hops []receipt.HOPID) func(receipt.HOPID) *dissem.Signer {
	return func(h receipt.HOPID) *dissem.Signer {
		var seed [32]byte
		seed[0], seed[1] = 0xd0, byte(slices.Index(hops, h)/2)
		return dissem.NewSigner(seed)
	}
}

// runWorld drives w through both halves over the named transport and
// store — "bus" and "http" with each HOP's key from signer, "direct"
// without keys — with tamper installed on the servers of the HOPs it
// names, and returns every report's canonical encoding, in order, the
// findings and each feed's final cursor (none for the direct
// transport). An honest run (nil tamper) must verify every epoch
// without a finding.
func runWorld(t *testing.T, w testWorld, transport, store string, signer func(receipt.HOPID) *dissem.Signer, tamper map[receipt.HOPID]dissem.BundleTamper) ([][]byte, []core.Blame, []uint64) {
	t.Helper()
	st := engine.Store{HOPs: w.hops, Retention: 2}
	var disk *segstore.Store
	if store == "segstore" {
		var err error
		if disk, _, err = segstore.Open("", segstore.Options{FS: segstore.NewMemFS()}); err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		st.Backend = segstore.Backend{Store: disk}
	}
	ver, err := engine.NewVerify(st, w.checks)
	if err != nil {
		t.Fatal(err)
	}
	var reports [][]byte
	ver.OnEpoch = func(rep core.EpochReport, _ core.WindowStats) {
		enc, err := core.EncodeEpochReport(rep)
		if err != nil {
			t.Error(err)
		}
		reports = append(reports, enc)
	}

	sink := ver.Window.Sink()
	if transport != "direct" {
		bus := engine.NewBusTransport(w.hops, signer)
		for h, tm := range tamper {
			bus.Servers[h].SetTamper(tm)
		}
		sink = bus.Sink()
		ver.Feeds = bus.Feeds()
		if transport == "http" {
			// One route per server, named by its first HOP, as a fleet
			// collector serves one feed per domain.
			mux := http.NewServeMux()
			for _, f := range ver.Feeds {
				mux.Handle(fmt.Sprintf("/feed/%d", f.HOPs[0]), bus.Servers[f.HOPs[0]])
			}
			hs := httptest.NewServer(mux)
			defer hs.Close()
			client := &dissem.Client{Registry: bus.Registry}
			retry := dissem.RetryPolicy{Attempts: 2, Base: time.Millisecond}
			for i, f := range ver.Feeds {
				ver.Feeds[i] = engine.HTTPFeed(client, retry, fmt.Sprintf("%s/feed/%d", hs.URL, f.HOPs[0]), f.HOPs[0])
				if !slices.Equal(ver.Feeds[i].HOPs, f.HOPs) {
					t.Fatalf("HTTP feed of %v speaks for %v, its bus feed for %v", f.HOPs[0], ver.Feeds[i].HOPs, f.HOPs)
				}
			}
		}
	}
	cursors := make([]uint64, len(ver.Feeds))
	for i := range ver.Feeds {
		fetch := ver.Feeds[i].Fetch
		ver.Feeds[i].Fetch = func(ctx context.Context, since uint64, fn func(*dissem.Bundle) error) (uint64, error) {
			next, err := fetch(ctx, since, fn)
			cursors[i] = next
			return next, err
		}
	}
	col, err := engine.NewCollect(w.dep, w.hops, testIntervalNS, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background(), engine.EpochSource(w.gen, testIntervalNS, testEpochs, nil), w.sim, ver); err != nil {
		t.Fatal(err)
	}
	if tamper == nil && (len(ver.Findings) != 0 || len(reports) != int(col.Terminal)+1) || ver.Epochs != len(reports) {
		t.Fatalf("%s/%s: %d findings, %d reports (%d tallied) for terminal epoch %d",
			transport, store, len(ver.Findings), len(reports), ver.Epochs, col.Terminal)
	}
	if ver.MatchedSamples == 0 {
		t.Fatalf("%s/%s: no matched samples — the world is too small to prove anything", transport, store)
	}
	if disk != nil {
		for e, want := range reports {
			if got, err := disk.Report(uint64(e)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: durable report of epoch %d differs from the one delivered (err %v)", transport, store, e, err)
			}
		}
	}
	return reports, ver.Findings, cursors
}

// corruptEpoch breaks the signature of every bundle of one epoch.
type corruptEpoch uint64

func (corruptEpoch) Name() string { return "corrupt-epoch" }
func (c corruptEpoch) Serve(_ string, _, epoch uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if epoch != uint64(c) {
		return sb, true
	}
	bad := append([]byte(nil), sb.Sig...)
	bad[0] ^= 0xff
	return dissem.SignedBundle{Payload: sb.Payload, Sig: bad}, true
}

// forgePayload serves epoch 1's payload rewritten by forge.
type forgePayload func(dissem.SignedBundle) dissem.SignedBundle

func (forgePayload) Name() string { return "forge-payload" }
func (f forgePayload) Serve(_ string, _, epoch uint64, sb dissem.SignedBundle) (dissem.SignedBundle, bool) {
	if epoch != 1 {
		return sb, true
	}
	return f(sb), true
}

// resign decodes a payload, rewrites its bundles and signs the result
// with signer.
func resign(t *testing.T, signer *dissem.Signer, rewrite func([]*dissem.Bundle) []*dissem.Bundle) forgePayload {
	return func(sb dissem.SignedBundle) dissem.SignedBundle {
		bundles, err := dissem.DecodePayload(sb.Payload)
		if err != nil {
			t.Error(err)
			return sb
		}
		return signer.Sign(rewrite(bundles)...)
	}
}

// TestSeamsAreInterchangeable: the same world gives byte-identical
// reports whichever transport carries the sealed epochs — per-HOP keys
// or two HOPs per key — and whichever store sits beneath the window, on
// a linear path and on a mesh. With one HOP misbehaving at the
// dissemination layer, the bus and HTTP give the same reports, the same
// findings and the same final cursors: both advance by the server's log
// position, whatever seq a replayed payload claims. With two HOPs per
// key, every way a domain's payload can fail authentication — a flipped
// byte, another domain's signature, an omitted HOP, a smuggled foreign
// HOP, mixed epochs — is one signature finding naming both of the
// domain's HOPs, identically on both carriers.
func TestSeamsAreInterchangeable(t *testing.T) {
	worlds := map[string]func(*testing.T) testWorld{"fig1": fig1World, "clos": closWorld}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			var want [][]byte
			for _, transport := range []string{"direct", "bus", "http", "bus-paired", "http-paired"} {
				for _, store := range []string{"ram", "segstore"} {
					w := build(t)
					signer, carrier := testSigner, transport
					if c, ok := strings.CutSuffix(transport, "-paired"); ok {
						signer, carrier = pairedSigner(w.hops), c
					}
					got, _, _ := runWorld(t, w, carrier, store, signer, nil)
					if want == nil {
						want = got
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%s: %d reports, direct/ram gave %d", transport, store, len(got), len(want))
					}
					for e := range got {
						if !bytes.Equal(got[e], want[e]) {
							t.Fatalf("%s/%s: epoch %d report differs from direct/ram:\n got %s\nwant %s",
								transport, store, e, got[e], want[e])
						}
					}
				}
			}
		})
	}
	// hops is Fig1's HOP list; the liar is hops[3], whose paired domain
	// is {hops[2], hops[3]}.
	hops := fig1World(t).hops
	paired := pairedSigner(hops)
	liar, domain, foreign := hops[3], hops[2:4], hops[0]
	for _, attack := range []struct {
		name     string
		signer   func(receipt.HOPID) *dissem.Signer
		tamper   func() dissem.BundleTamper
		evidence []core.EvidenceClass // every class the findings hold, all on the liar's HOPs
	}{
		{"corrupt-signature", testSigner, func() dissem.BundleTamper { return corruptEpoch(1) },
			[]core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
		// One byte short of a bundle header: no frame violation over
		// HTTP, a payload refused on both carriers, claiming no epoch.
		{"short-payload", testSigner, func() dissem.BundleTamper {
			return forgePayload(func(sb dissem.SignedBundle) dissem.SignedBundle {
				return dissem.SignedBundle{Payload: sb.Payload[:31], Sig: sb.Sig}
			})
		}, []core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
		{"withhold", testSigner, func() dissem.BundleTamper { return &dissem.Withholder{FromEpoch: 2} },
			[]core.EvidenceClass{core.EvWithheldBundle}},
		{"replay", testSigner, func() dissem.BundleTamper { return &dissem.Replayer{FromEpoch: 2} },
			[]core.EvidenceClass{core.EvEpochReplay, core.EvWithheldBundle}},
		{"domain-flipped-byte", paired, func() dissem.BundleTamper {
			return forgePayload(func(sb dissem.SignedBundle) dissem.SignedBundle {
				bad := slices.Clone(sb.Payload)
				bad[len(bad)-1] ^= 0x01
				return dissem.SignedBundle{Payload: bad, Sig: sb.Sig}
			})
		}, []core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
		{"domain-other-key", paired, func() dissem.BundleTamper {
			return resign(t, paired(foreign), func(bs []*dissem.Bundle) []*dissem.Bundle { return bs })
		}, []core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
		{"domain-omits-hop", paired, func() dissem.BundleTamper {
			return resign(t, paired(liar), func(bs []*dissem.Bundle) []*dissem.Bundle { return bs[:1] })
		}, []core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
		{"domain-smuggles-foreign-hop", paired, func() dissem.BundleTamper {
			return resign(t, paired(liar), func(bs []*dissem.Bundle) []*dissem.Bundle {
				return append(bs, &dissem.Bundle{Origin: foreign, Seq: bs[0].Seq, Epoch: bs[0].Epoch})
			})
		}, []core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
		{"domain-mixes-epochs", paired, func() dissem.BundleTamper {
			return resign(t, paired(liar), func(bs []*dissem.Bundle) []*dissem.Bundle {
				bs[1].Epoch++
				return bs
			})
		}, []core.EvidenceClass{core.EvSignature, core.EvWithheldBundle}},
	} {
		t.Run("fig1-"+attack.name, func(t *testing.T) {
			accountable := []receipt.HOPID{liar}
			if attack.signer(domain[0]).Public().Equal(attack.signer(domain[1]).Public()) {
				accountable = domain
			}
			var want [][]byte
			var wantFindings []core.Blame
			var wantCursors []uint64
			for _, transport := range []string{"bus", "http"} {
				got, findings, cursors := runWorld(t, fig1World(t), transport, "ram", attack.signer, map[receipt.HOPID]dissem.BundleTamper{liar: attack.tamper()})
				classes := map[core.EvidenceClass]bool{}
				blamed := map[receipt.HOPID]bool{}
				for _, f := range findings {
					classes[f.Evidence] = true
					for _, h := range f.HOPs {
						blamed[h] = true
						if !slices.Contains(accountable, h) {
							t.Fatalf("%s: finding %v blames %v, outside the liar's key %v", transport, f, f.HOPs, accountable)
						}
					}
					if f.Evidence == core.EvSignature && !slices.Equal(f.HOPs, accountable) {
						t.Fatalf("%s: signature finding %v, want one naming %v", transport, f, accountable)
					}
				}
				if len(blamed) != len(accountable) {
					t.Fatalf("%s: findings %v blame %d HOPs, want all of %v", transport, findings, len(blamed), accountable)
				}
				if len(classes) != len(attack.evidence) {
					t.Fatalf("%s: findings %v, want exactly the classes %v", transport, findings, attack.evidence)
				}
				for _, ev := range attack.evidence {
					if !classes[ev] {
						t.Fatalf("%s: no %v finding among %v", transport, ev, findings)
					}
				}
				if want == nil {
					want, wantFindings, wantCursors = got, findings, cursors
					continue
				}
				if !reflect.DeepEqual(findings, wantFindings) {
					t.Fatalf("%s: findings differ from the bus's:\n got %v\nwant %v", transport, findings, wantFindings)
				}
				if !slices.Equal(cursors, wantCursors) {
					t.Fatalf("%s: final cursors %v, the bus's %v", transport, cursors, wantCursors)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d reports, the bus gave %d", transport, len(got), len(want))
				}
				for e := range got {
					if !bytes.Equal(got[e], want[e]) {
						t.Fatalf("%s: report %d differs from the bus's:\n got %s\nwant %s", transport, e, got[e], want[e])
					}
				}
			}
		})
	}
}

// TestEpochSourceStops: a closed stop channel ends the stream at the
// next segment boundary, and the engine still seals and verifies what
// was simulated.
func TestEpochSourceStops(t *testing.T) {
	w := fig1World(t)
	stop := make(chan struct{})
	ver, err := engine.NewVerify(engine.Store{HOPs: w.hops, Retention: 2}, w.checks)
	if err != nil {
		t.Fatal(err)
	}
	col, err := engine.NewCollect(w.dep, w.hops, testIntervalNS, 0, ver.Window.Sink())
	if err != nil {
		t.Fatal(err)
	}
	col.AfterSegment = func(context.Context) error {
		if col.Segments == 2 {
			close(stop)
		}
		return nil
	}
	if err := col.Run(context.Background(), engine.EpochSource(w.gen, testIntervalNS, testEpochs, stop), w.sim, ver); err != nil {
		t.Fatal(err)
	}
	if col.Segments != 2 || ver.Epochs != int(col.Terminal)+1 || len(ver.Window.UnverifiedEpochs()) != 0 {
		t.Fatalf("stopped after %d segments, verified %d of %d sealed epochs, unverified %v",
			col.Segments, ver.Epochs, int(col.Terminal)+1, ver.Window.UnverifiedEpochs())
	}
}

// TestCancelAborts: a cancelled context stops both halves with the
// context's error, sealing nothing further.
func TestCancelAborts(t *testing.T) {
	w := fig1World(t)
	ctx, cancel := context.WithCancel(context.Background())
	bus := engine.NewBusTransport(w.hops, testSigner)
	ver, err := engine.NewVerify(engine.Store{HOPs: w.hops, Retention: 2}, w.checks)
	if err != nil {
		t.Fatal(err)
	}
	ver.Feeds = bus.Feeds()
	col, err := engine.NewCollect(w.dep, w.hops, testIntervalNS, 0, bus.Sink())
	if err != nil {
		t.Fatal(err)
	}
	col.AfterSegment = func(context.Context) error {
		cancel()
		return nil
	}
	err = col.Run(ctx, engine.EpochSource(w.gen, testIntervalNS, testEpochs, nil), w.sim, ver)
	if !errors.Is(err, context.Canceled) || col.Segments != 1 {
		t.Fatalf("Run = %v after %d segments, want context.Canceled after 1", err, col.Segments)
	}
}
