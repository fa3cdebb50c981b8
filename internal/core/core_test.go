package core

import (
	"math"
	"testing"

	"vpm/internal/delaymodel"
	"vpm/internal/hashing"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// scenario builds the Figure 1 world: a trace, the path, and a
// deployment, with optional congestion and loss inside X.
type scenario struct {
	pkts  []packet.Packet
	path  *netsim.Path
	dep   *Deployment
	key   packet.PathKey
	truth *netsim.Result
}

type scenarioOpt struct {
	ratePPS    float64
	durNS      int64
	congestX   bool
	lossX      float64
	cfg        DeployConfig
	mutatePath func(*netsim.Path)
}

func buildScenario(t testing.TB, opt scenarioOpt) *scenario {
	t.Helper()
	if opt.ratePPS == 0 {
		opt.ratePPS = 100000
	}
	if opt.durNS == 0 {
		opt.durNS = int64(1e9)
	}
	if opt.cfg.MarkerRate == 0 {
		opt.cfg = DefaultDeployConfig()
	}
	tc := trace.Config{
		Seed:       42,
		DurationNS: opt.durNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(opt.ratePPS)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	path := netsim.Fig1Path(7)
	xi := path.DomainIndex("X")
	if opt.congestX {
		q, err := delaymodel.New(delaymodel.BurstyUDPScenario(3))
		if err != nil {
			t.Fatal(err)
		}
		path.Domains[xi].Delay = q
	}
	if opt.lossX > 0 {
		ge, err := lossmodel.FromTargetLoss(opt.lossX, 8, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		path.Domains[xi].Loss = ge
	}
	if opt.mutatePath != nil {
		opt.mutatePath(path)
	}
	dep, err := NewDeployment(path, tc.Table(), opt.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := &scenario{
		pkts: pkts,
		path: path,
		dep:  dep,
		key: packet.PathKey{
			Src: tc.Paths[0].SrcPrefix,
			Dst: tc.Paths[0].DstPrefix,
		},
	}
	res, err := path.Run(pkts, dep.Observers())
	if err != nil {
		t.Fatal(err)
	}
	sc.truth = res
	dep.Finalize()
	return sc
}

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(CollectorConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	tbl := packet.NewTable([]packet.Prefix{packet.MakePrefix(10, 0, 0, 0, 8)})
	if _, err := NewCollector(CollectorConfig{Table: tbl}); err == nil {
		t.Error("missing PathID builder accepted")
	}
}

func TestHonestLossEstimationIsExact(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{lossX: 0.10, durNS: int64(500e6)})
	v := sc.dep.NewVerifier(sc.key)
	rep, err := v.LossBetween(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := sc.truth.DomainByName("X")
	if rep.Lost != int64(truth.DroppedInside) {
		t.Fatalf("receipt-computed loss %d != true loss %d", rep.Lost, truth.DroppedInside)
	}
	if rep.In != int64(truth.In) {
		t.Fatalf("receipt-computed input %d != true input %d", rep.In, truth.In)
	}
	if math.Abs(rep.Rate()-truth.LossRate()) > 1e-12 {
		t.Fatalf("rates differ: %v vs %v", rep.Rate(), truth.LossRate())
	}
}

func TestHonestDelayEstimation(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{congestX: true, durNS: int64(500e6)})
	v := sc.dep.NewVerifier(sc.key)
	truth, _ := sc.truth.DomainByName("X")
	delays := v.DelaysBetween(4, 5)
	if len(delays) == 0 {
		t.Fatal("no matched samples")
	}
	// ~1.1% effective sampling of ~50k delivered packets.
	if len(delays) < 200 {
		t.Fatalf("only %d matched samples", len(delays))
	}
	acc, err := quantile.AccuracyNS(delays, truth.TrueDelaysNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's no-loss accuracy at 1% sampling is sub-millisecond.
	if acc > 2e6 {
		t.Errorf("delay accuracy %.3fms worse than 2ms at 1%% sampling, no loss", acc/1e6)
	}
	ests, err := v.DelayQuantiles(4, 5, quantile.DefaultQuantiles, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("%d estimates", len(ests))
	}
	trueP90 := stats.Quantile(truth.TrueDelaysNS, 0.9)
	if ests[1].Lo > trueP90 || ests[1].Hi < trueP90 {
		// Allow slack: the CI is for the sampled population; loss-free
		// sampling is unbiased so this should rarely trip.
		if math.Abs(ests[1].Point-trueP90) > 3e6 {
			t.Errorf("p90 estimate %v far from truth %v", ests[1].Point, trueP90)
		}
	}
}

func TestHonestPathFullyConsistent(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{congestX: true, lossX: 0.25, durNS: int64(500e6)})
	v := sc.dep.NewVerifier(sc.key)
	for _, lv := range v.VerifyAllLinks() {
		if !lv.Consistent() {
			t.Errorf("honest path, link %v-%v inconsistent: %v", lv.Up, lv.Down, lv.Violations[:min(3, len(lv.Violations))])
		}
		if lv.MatchedSamples == 0 {
			t.Errorf("link %v-%v matched no samples", lv.Up, lv.Down)
		}
	}
}

func TestAsymmetricRatesStayConsistent(t *testing.T) {
	// X samples 1%, N samples 0.1%: the subset property plus the
	// verifier's expectation logic must avoid false alarms.
	cfg := DefaultDeployConfig()
	cfg.PerDomain = map[string]Tuning{
		"N": {SampleRate: 0.001, AggRate: 0.001},
		"X": {SampleRate: 0.01, AggRate: 0.001},
	}
	sc := buildScenario(t, scenarioOpt{cfg: cfg, durNS: int64(500e6)})
	v := sc.dep.NewVerifier(sc.key)
	for _, lv := range v.VerifyAllLinks() {
		if !lv.Consistent() {
			t.Errorf("asymmetric honest path, link %v-%v: %d violations, e.g. %v",
				lv.Up, lv.Down, len(lv.Violations), lv.Violations[0])
		}
	}
	// Verification quality between X's egress (5) and N's ingress (6)
	// is limited by N's lower rate.
	if n5, n6 := v.SampleCount(5), v.SampleCount(6); n6 >= n5 {
		t.Errorf("N (rate 0.1%%) has %d samples vs X's %d", n6, n5)
	}
}

func TestDomainReport(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{congestX: true, lossX: 0.10, durNS: int64(500e6)})
	v := sc.dep.NewVerifier(sc.key)
	rep, err := v.DomainReport("X", quantile.DefaultQuantiles, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := sc.truth.DomainByName("X")
	if math.Abs(rep.Loss.Rate()-truth.LossRate()) > 0.001 {
		t.Errorf("loss %v vs truth %v", rep.Loss.Rate(), truth.LossRate())
	}
	if rep.DelaySamples == 0 || len(rep.DelayEstimates) != 3 {
		t.Errorf("bad delay estimation: %+v", rep)
	}
	if _, err := v.DomainReport("Z", quantile.DefaultQuantiles, 0.95); err == nil {
		t.Error("unknown domain accepted")
	}
	// An invalid confidence fails the first domain with samples, and
	// the whole sweep with it, as it fails RollingVerifier.VerifyEpoch.
	if reps, err := v.DomainReports(quantile.DefaultQuantiles, 0); err == nil || reps != nil {
		t.Errorf("invalid confidence: %d reports, err %v; want none and an error", len(reps), err)
	}
}

// dropSamples is the under-reporting lie: the liar omits a fraction of
// its sample records (e.g. the ones with embarrassing delays),
// hoping the verifier's estimate improves. Omitted records for
// packets that other HOPs reported become missing-record evidence.
func dropSamples(r receipt.SampleReceipt, dropFraction float64, seed uint64) receipt.SampleReceipt {
	rng := stats.NewRNG(seed)
	out := receipt.SampleReceipt{Path: r.Path}
	for _, s := range r.Samples {
		if rng.Bool(dropFraction) {
			continue
		}
		out.Samples = append(out.Samples, s)
	}
	return out
}

func TestDropSamplesExposedByEvidence(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{durNS: int64(300e6)})
	v := NewVerifier(sc.dep.Layout())
	v.SetConfig(VerifierConfig{MarkerThreshold: sc.dep.markerThreshold, SampleThresholds: sc.dep.sampleThresholds})
	for hop, proc := range sc.dep.Processors {
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key != sc.key {
				continue
			}
			if hop == 5 {
				s = dropSamples(s, 0.5, 99)
			}
			v.AddSampleReceipt(hop, s)
		}
	}
	lv := v.CheckLink(5, 6)
	if lv.Consistent() {
		t.Fatal("under-reporting went undetected")
	}
	missingUp := 0
	for _, viol := range lv.Violations {
		if viol.Kind == receipt.MissingUpstream {
			missingUp++
		}
	}
	if missingUp == 0 {
		t.Error("expected missing-upstream evidence against the under-reporter")
	}
}

func TestMarkerBiasDetection(t *testing.T) {
	// Extension check: a domain preferring markers (the only VPM
	// samples predictable at forwarding time) flatters its delay tail
	// but is caught by comparing marker vs non-marker delay
	// distributions.
	markerMu := hashing.ThresholdForRate(DefaultDeployConfig().MarkerRate)
	mkWorld := func(biased bool) (*scenario, *Verifier) {
		opt := scenarioOpt{congestX: true, durNS: int64(500e6)}
		if biased {
			opt.mutatePath = func(p *netsim.Path) {
				xi := p.DomainIndex("X")
				p.Domains[xi].Preferential = func(_ *packet.Packet, digest uint64) bool {
					return hashing.Exceeds(digest, markerMu)
				}
			}
		}
		sc := buildScenario(t, opt)
		return sc, sc.dep.NewVerifier(sc.key)
	}
	_, vHonest := mkWorld(false)
	rep, err := vHonest.CheckMarkerBias(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspicious {
		t.Fatalf("honest domain flagged for marker bias: %+v", rep)
	}
	_, vBiased := mkWorld(true)
	rep, err = vBiased.CheckMarkerBias(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suspicious {
		t.Fatalf("marker-preferring domain not flagged: %+v", rep)
	}
	if rep.MarkerP90MS >= rep.OtherP90MS {
		t.Errorf("expected flattered marker delays: %+v", rep)
	}
}

func TestMarkerBiasRequiresConfig(t *testing.T) {
	v := NewVerifier(Layout{})
	if _, err := v.CheckMarkerBias(4, 5); err == nil {
		t.Fatal("unconfigured verifier should refuse the check")
	}
}

func TestPartialDeployment(t *testing.T) {
	cfg := DefaultDeployConfig()
	cfg.SkipDomains = map[string]bool{"L": true}
	sc := buildScenario(t, scenarioOpt{cfg: cfg, durNS: int64(300e6)})
	if _, ok := sc.dep.Collectors[2]; ok {
		t.Fatal("skipped domain still has collectors")
	}
	v := sc.dep.NewVerifier(sc.key)
	// X's performance is still estimable from its own receipts.
	if _, err := v.LossBetween(4, 5); err != nil {
		t.Fatalf("X not estimable under partial deployment: %v", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{durNS: int64(200e6)})
	m := sc.dep.Collectors[4].Memory()
	if m.ActivePaths != 1 {
		t.Errorf("active paths = %d, want 1", m.ActivePaths)
	}
	if m.MonitoringCacheBytes == 0 || m.RecordBufferBytes == 0 || m.DispatchBytes < classifyCacheSize*32 {
		t.Errorf("held bytes: monitoring cache %d, record buffers %d, dispatch %d",
			m.MonitoringCacheBytes, m.RecordBufferBytes, m.DispatchBytes)
	}
	if m.TempBufferPeakEntries == 0 || m.TempBufferPeakBytes == 0 {
		t.Error("temp buffer accounting empty")
	}
	obs, uncls := sc.dep.Collectors[4].Stats()
	if obs == 0 || uncls != 0 {
		t.Errorf("stats: observed=%d unclassified=%d", obs, uncls)
	}
}

func TestBandwidthOverheadUnderPaperBudget(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{durNS: int64(500e6)})
	var traffic int64
	for i := range sc.pkts {
		traffic += int64(sc.pkts[i].WireLen())
	}
	// Traffic crosses 8 HOPs; compare receipts to single-path volume.
	rb := sc.dep.TotalReceiptBytes()
	frac := float64(rb) / float64(traffic)
	// The paper's headline: "less than 0.1% overhead" per domain; we
	// have 8 reporting HOPs, so allow 8x that for the whole path.
	if frac > 0.008 {
		t.Errorf("path receipt overhead %.4f%% exceeds budget", frac*100)
	}
	if rb == 0 {
		t.Error("no receipt bytes accounted")
	}
}

func TestProcessorPolling(t *testing.T) {
	sc := buildScenario(t, scenarioOpt{durNS: int64(200e6)})
	p := sc.dep.Processors[4]
	var want int64
	for _, s := range p.Samples {
		want += int64(len(s.AppendBinary(nil)))
	}
	for _, a := range p.Aggs {
		want += int64(len(a.AppendBinary(nil)))
	}
	if got := p.ReceiptBytes(); got == 0 || got != want {
		t.Errorf("ReceiptBytes %d, retained receipts' encoded size %d", got, want)
	}
	if len(p.CombinedSamples()) == 0 {
		t.Error("no combined samples")
	}
}

func BenchmarkCollectorObserve(b *testing.B) {
	tc := trace.Config{
		Seed:       1,
		DurationNS: int64(100e6),
		Paths:      []trace.PathSpec{trace.DefaultPath(100000)},
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	tbl := tc.Table()
	col, err := NewCollector(CollectorConfig{
		HOP:   4,
		Table: tbl,
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key}
		},
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &pkts[i%len(pkts)]
		col.Observe(p, p.Digest(1), int64(i))
		if i%1000000 == 999999 {
			col.Drain()
		}
	}
}
