package core

import (
	"testing"

	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// These tests exercise the other half of the paper's inconsistency
// semantics: honest domains connected by a *faulty inter-domain link*
// also produce inconsistent receipts — "such an inconsistency can be
// due either to a lie or to a faulty inter-domain link" (§3.1). The
// verifier must localize the problem to exactly the faulty link, and
// healthy infrastructure must stay quiet.

func TestFaultyLinkFlagged(t *testing.T) {
	// The X-N link (between HOPs 5 and 6) drops 10% of traffic.
	sc := buildScenario(t, scenarioOpt{
		durNS: int64(500e6),
		mutatePath: func(p *netsim.Path) {
			// Link index 2 connects X (domain 2) and N (domain 3).
			p.Links[2].Loss = lossmodel.NewBernoulli(0.10, stats.NewRNG(71))
		},
	})
	v := sc.dep.NewVerifier(sc.key)
	for _, lv := range v.VerifyAllLinks() {
		faulty := lv.Up == 5 && lv.Down == 6
		if faulty && lv.Consistent() {
			t.Errorf("faulty link %v-%v not flagged (missing-down=%d, matched=%d)",
				lv.Up, lv.Down, lv.MissingDown, lv.MatchedSamples)
		}
		if !faulty && !lv.Consistent() {
			t.Errorf("healthy link %v-%v flagged: %v", lv.Up, lv.Down, lv.Violations[0])
		}
	}
	// The aggregate counts across the faulty link must show the loss
	// too (count-mismatch evidence).
	lv := v.CheckLink(5, 6)
	var counts, missing int
	for _, viol := range lv.Violations {
		switch viol.Kind {
		case receipt.CountMismatch:
			counts++
		case receipt.MissingDownstream:
			missing++
		}
	}
	if counts == 0 {
		t.Error("faulty link produced no aggregate count mismatches")
	}
	if missing == 0 {
		t.Error("faulty link produced no missing sample records")
	}
}

func TestSlowLinkBreaksDelayBound(t *testing.T) {
	// A link whose real delay exceeds its advertised MaxDiff: honest
	// receipts violate the timestamp rule — the neighbors must either
	// fix the link or advertise a larger (and embarrassing) MaxDiff
	// (§4, "No Clock Synchronization").
	sc := buildScenario(t, scenarioOpt{
		durNS: int64(300e6),
		mutatePath: func(p *netsim.Path) {
			p.Links[2].DelayNS = p.Links[2].MaxDiffNS + 2_000_000
		},
	})
	v := sc.dep.NewVerifier(sc.key)
	lv := v.CheckLink(5, 6)
	if lv.Consistent() {
		t.Fatal("slow link passed the MaxDiff check")
	}
	for _, viol := range lv.Violations {
		if viol.Kind != receipt.DelayBound {
			t.Fatalf("unexpected violation kind %v", viol.Kind)
		}
	}
}

func TestClockSkewWithinMaxDiffTolerated(t *testing.T) {
	// Modest skew (under MaxDiff minus link delay) stays consistent —
	// the paper's incentive story: domains keep clocks synced well
	// enough, or their links look slow.
	sc := buildScenario(t, scenarioOpt{
		durNS: int64(300e6),
		mutatePath: func(p *netsim.Path) {
			ni := p.DomainIndex("N")
			p.Domains[ni].IngressSkewNS = 500_000 // 0.5 ms forward skew
		},
	})
	v := sc.dep.NewVerifier(sc.key)
	if lv := v.CheckLink(5, 6); !lv.Consistent() {
		t.Fatalf("0.5ms skew should fit inside MaxDiff: %v", lv.Violations[0])
	}
}

func TestClockSkewBeyondMaxDiffFlagged(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{
		durNS: int64(300e6),
		mutatePath: func(p *netsim.Path) {
			ni := p.DomainIndex("N")
			p.Domains[ni].IngressSkewNS = 5_000_000 // 5 ms >> MaxDiff 3 ms
		},
	})
	v := sc.dep.NewVerifier(sc.key)
	lv := v.CheckLink(5, 6)
	if lv.Consistent() {
		t.Fatal("5ms skew against a 3ms MaxDiff went unflagged")
	}
	// Negative skew (downstream clock behind) is flagged too: the bound
	// is two-sided, or a downstream HOP could set its clock back until
	// no marker crossed the link feasibly and no missing record was
	// expected of it.
	sc2 := buildScenario(t, scenarioOpt{
		durNS: int64(300e6),
		mutatePath: func(p *netsim.Path) {
			ni := p.DomainIndex("N")
			p.Domains[ni].IngressSkewNS = -5_000_000
		},
	})
	v2 := sc2.dep.NewVerifier(sc2.key)
	if lv := v2.CheckLink(5, 6); lv.Consistent() {
		t.Fatal("-5ms skew against a 3ms MaxDiff went unflagged")
	}
}

func TestMaxDiffMismatchDetected(t *testing.T) {
	// Two neighbors advertising different MaxDiff values for their
	// shared link violate rule (1) of §4.
	sc := buildScenario(t, scenarioOpt{durNS: int64(200e6)})
	v := NewVerifier(sc.dep.Layout())
	v.SetConfig(sc.dep.VerifierConfig())
	for hop, proc := range sc.dep.Processors {
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key != sc.key {
				continue
			}
			if hop == 6 {
				s.Path.MaxDiffNS += 1_000_000 // N advertises a different bound
			}
			v.AddSampleReceipt(hop, s)
		}
	}
	lv := v.CheckLink(5, 6)
	found := false
	for _, viol := range lv.Violations {
		if viol.Kind == receipt.MaxDiffMismatch {
			found = true
		}
	}
	if !found {
		t.Fatal("MaxDiff mismatch not detected")
	}
}

func TestMultiPathCollector(t *testing.T) {
	// A collector classifying many concurrent paths keeps per-path
	// state separate — the §7.1 "active path" scenario at test scale.
	const nPaths = 20
	tc := trace.Config{Seed: 61, DurationNS: int64(200e6)}
	for i := 0; i < nPaths; i++ {
		spec := trace.DefaultPath(5000)
		spec.SrcPrefix = packet.MakePrefix(10, byte(1+i), 0, 0, 16)
		spec.DstPrefix = packet.MakePrefix(172, byte(16+i), 0, 0, 16)
		tc.Paths = append(tc.Paths, spec)
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	path := netsim.Fig1Path(9)
	dep, err := NewDeployment(path, tc.Table(), DefaultDeployConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := path.Run(pkts, dep.Observers()); err != nil {
		t.Fatal(err)
	}
	dep.Finalize()
	m := dep.Collectors[4].Memory()
	if m.ActivePaths != nPaths {
		t.Fatalf("collector tracks %d paths, want %d", m.ActivePaths, nPaths)
	}
	// Each path's verifier sees only its own traffic, with no phantom
	// loss on the lossless path.
	for i := 0; i < nPaths; i++ {
		key := packet.PathKey{Src: tc.Paths[i].SrcPrefix, Dst: tc.Paths[i].DstPrefix}
		v := dep.NewVerifier(key)
		rep, err := v.LossBetween(4, 5)
		if err != nil {
			t.Fatalf("path %d: %v", i, err)
		}
		if rep.Lost != 0 {
			t.Fatalf("path %d phantom loss %d", i, rep.Lost)
		}
	}
}
