package experiments

import (
	"strings"
	"testing"
)

// quickCfg shrinks runs for unit testing; the full-scale runs happen
// in the root package's TestPaperResults and benchmarks.
func quickCfg() Config {
	return Config{Seed: 5, RatePPS: 100000, DurationNS: int64(300e6)}
}

func TestNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.Seed == 0 || c.RatePPS == 0 || c.DurationNS == 0 || c.Confidence == 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
}

func TestTableRenderers(t *testing.T) {
	md := Markdown([]string{"a"}, [][]string{{"x"}})
	if !strings.HasPrefix(md, "| a |") {
		t.Errorf("bad markdown:\n%s", md)
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickCfg()
	cfg.DurationNS = int64(1e9) // the paper's per-second packet sequences
	rows, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig2LossPcts)*len(Fig2SampleRatesPct) {
		t.Fatalf("%d rows", len(rows))
	}
	byCell := map[[2]float64]Fig2Row{}
	for _, r := range rows {
		if r.AccuracyMS < 0 {
			t.Fatalf("unmeasurable cell: %+v", r)
		}
		byCell[[2]float64{r.LossPct, r.SampleRatePct}] = r
	}
	// Shape 1: at a given loss, more sampling never has wildly worse
	// accuracy than 10x less sampling (graceful degradation).
	for _, loss := range Fig2LossPcts {
		hi := byCell[[2]float64{loss, 5}]
		lo := byCell[[2]float64{loss, 0.1}]
		if hi.MatchedSamples <= lo.MatchedSamples {
			t.Errorf("loss %v: 5%% sampling matched %d <= 0.1%%'s %d",
				loss, hi.MatchedSamples, lo.MatchedSamples)
		}
	}
	// Shape 2: the paper's headline cell — 1% sampling, 25% loss —
	// stays within a few ms.
	if acc := byCell[[2]float64{25, 1}].AccuracyMS; acc > 3 {
		t.Errorf("accuracy at (1%%, 25%% loss) = %.3f ms, paper says ~2 ms", acc)
	}
	// Shape 3: no-loss, high-rate accuracy is sub-millisecond.
	if acc := byCell[[2]float64{0, 5}].AccuracyMS; acc > 1 {
		t.Errorf("accuracy at (5%%, no loss) = %.3f ms, want < 1 ms", acc)
	}
	if out := Fig2Render(rows); !strings.HasPrefix(out, "|") || !strings.Contains(out, "ms") {
		t.Error("render broken")
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickCfg()
	cfg.DurationNS = int64(1e9)
	rows, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig3LossPcts) {
		t.Fatalf("%d rows", len(rows))
	}
	var noLoss, mid, high Fig3Row
	for _, r := range rows {
		switch r.LossPct {
		case 0:
			noLoss = r
		case 25:
			mid = r
		case 50:
			high = r
		}
		if r.Pairs == 0 {
			t.Fatalf("loss %v%%: no joined aggregates", r.LossPct)
		}
		// The measurement itself stays correct as granularity
		// degrades.
		if diff := r.MeasuredLossPct - r.LossPct; diff > 3 || diff < -3 {
			t.Errorf("loss %v%%: measured %v%%", r.LossPct, r.MeasuredLossPct)
		}
	}
	// No-loss granularity matches the configured aggregate span.
	if ratio := noLoss.GranularitySec / noLoss.BaselineSec; ratio < 0.8 || ratio > 1.3 {
		t.Errorf("no-loss granularity ratio %.2f, want ~1", ratio)
	}
	// Degradation is smooth: 25% loss coarsens but stays under ~2x;
	// 50% under ~3x (the paper's curve runs 1.0 -> ~1.5 -> ~2.5).
	if r := mid.GranularitySec / noLoss.GranularitySec; r < 1.05 || r > 2.2 {
		t.Errorf("25%% loss granularity ratio %.2f, want ~1.3-1.5", r)
	}
	if r := high.GranularitySec / noLoss.GranularitySec; r < 1.3 || r > 3.5 {
		t.Errorf("50%% loss granularity ratio %.2f, want ~2-2.5", r)
	}
	if out := Fig3Render(rows); !strings.Contains(out, "Granularity") {
		t.Error("render broken")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	out := Table1Render(rows)
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("partition algebra violated:\n%s", out)
	}
	if !strings.Contains(out, "Join(A2,A3) = A4") {
		t.Errorf("missing join example:\n%s", out)
	}
}

func TestOverheadBudgets(t *testing.T) {
	// §7.1 scenarios, paper numbers vs ours.
	paper := paperMemoryScenario(100000, 3.125e6, 10_000_000)
	if paper.MonitoringCacheBytes != 2_000_000 {
		t.Errorf("paper cache = %d, want 2MB", paper.MonitoringCacheBytes)
	}
	if paper.TempBufferBytes < 200_000 || paper.TempBufferBytes > 450_000 {
		t.Errorf("paper temp buffer = %d, want ~218-437KB", paper.TempBufferBytes)
	}
	ours := computeMemoryBudget(100000, 3.125e6, 10_000_000)
	if ours.MonitoringCacheBytes <= paper.MonitoringCacheBytes {
		t.Error("our 64-bit state should cost more than the paper's 20B")
	}
	bw := computeBandwidthBudget(10, 1000, 0.01, 400)
	// The paper's scenario lands at 0.2 B/pkt, 0.046% with 22-byte
	// receipts; our receipts are larger but the order must hold.
	if bw.BytesPerPacket > 3 {
		t.Errorf("bandwidth %v B/pkt implausibly high", bw.BytesPerPacket)
	}
	if bw.OverheadFraction > 0.01 {
		t.Errorf("overhead fraction %v exceeds 1%%", bw.OverheadFraction)
	}
}

func TestMemoryOverheadRows(t *testing.T) {
	rows := MemoryOverhead()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper headline numbers.
	if rows[0].Paper.MonitoringCacheBytes != 2_000_000 {
		t.Errorf("paper cache = %d, want 2 MB", rows[0].Paper.MonitoringCacheBytes)
	}
	// 3.125 Mpps * 10ms = 31250 entries * 7 B = ~218 KB (the paper's
	// 436 KB counts both directions of the interface).
	if e := rows[1].Paper.TempBufferEntries; e != 31250 {
		t.Errorf("entries = %d", e)
	}
	if out := MemoryRender(rows); !strings.Contains(out, "MB") {
		t.Error("render broken")
	}
}

func TestBandwidthOverheadRows(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := BandwidthOverhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Analytic paper scenario: our 16-byte sample records are ~2.3x
	// the paper's 7-byte ones, so the paper's 0.046% becomes ~0.5%;
	// it must stay well under the 1% mark regardless.
	if rows[0].Analytic.OverheadFraction > 0.007 {
		t.Errorf("paper-scenario overhead %.4f%%", rows[0].Analytic.OverheadFraction*100)
	}
	// Compact encoding: ~1.2 B/pkt (0.31%). The paper's 0.2 B/pkt
	// counts only the per-aggregate receipts; adding the 1%-sampling
	// records at its own 7-byte size gives ~0.9 B/pkt, so our figure
	// is the honest version of the same arithmetic.
	if rows[1].Analytic.OverheadFraction > 0.004 {
		t.Errorf("compact overhead %.4f%%", rows[1].Analytic.OverheadFraction*100)
	}
	if rows[1].Analytic.BytesPerPacket >= rows[0].Analytic.BytesPerPacket {
		t.Error("compact encoding should cost less than full-width")
	}
	// Measured Fig.1 deployment: under 1% of traffic.
	if rows[2].MeasuredPct < 0 || rows[2].MeasuredPct > 1 {
		t.Errorf("measured overhead %.4f%%", rows[2].MeasuredPct)
	}
	if out := BandwidthRender(rows); !strings.Contains(out, "%") {
		t.Error("render broken")
	}
}

func TestVerifiabilityRows(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Verifiability(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	full, reduced := rows[0], rows[1]
	if full.NRatePct != 1 || reduced.NRatePct != 0.1 {
		t.Fatalf("row order: %+v", rows)
	}
	// N sampling 10x less => ~10x fewer verifiable samples. That cap
	// on the verifiable population is the §7.2 claim's mechanism.
	if reduced.VerifyN*4 > full.VerifyN {
		t.Errorf("verifiable samples %d vs %d — expected a large drop", reduced.VerifyN, full.VerifyN)
	}
	// Within the full-rate row, verification matches self-estimation
	// (same sample set up to reorder noise).
	if full.VerifyN*100 < full.EstimateN*80 {
		t.Errorf("1%% witness corroborates only %d of %d samples", full.VerifyN, full.EstimateN)
	}
	if reduced.VerifyMS <= 0 || reduced.EstimateMS <= 0 {
		t.Errorf("degenerate accuracies: %+v", reduced)
	}
	if out := VerifiabilityRender(rows); !strings.Contains(out, "verifiable") {
		t.Error("render broken")
	}
}

func TestAttackRows(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := Attacks(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]AttackRow{}
	for _, r := range rows {
		byKey[r.Protocol+"/"+r.Attack] = r
	}
	strawman := byKey["strawman/honest"]
	if d := strawman.EstLossPct - strawman.TrueLossPct; d > 0.01 || d < -0.01 {
		t.Errorf("strawman not exact: %+v", strawman)
	}
	tspp := byKey["TS++/sampling bias"]
	if tspp.TrueLossPct < 15 {
		t.Fatalf("TS++ world lost only %v%%", tspp.TrueLossPct)
	}
	if tspp.EstLossPct > 2 {
		t.Errorf("TS++ bias should hide loss, estimated %v%%", tspp.EstLossPct)
	}
	if tspp.Detected {
		t.Error("TS++ bias must go undetected — that is the flaw")
	}
	vpmBias := byKey["VPM/bias attempt (prefer markers)"]
	if d := vpmBias.EstLossPct - vpmBias.TrueLossPct; d > 3 || d < -3 {
		t.Errorf("VPM bias attempt moved loss estimate: est %v%% vs true %v%%",
			vpmBias.EstLossPct, vpmBias.TrueLossPct)
	}
	if !vpmBias.Detected {
		t.Error("marker-bias detector should flag the marker preference")
	}
	blame := byKey["VPM/blame shift (fabricate delivery)"]
	if !blame.Detected {
		t.Error("blame shift must be exposed")
	}
	if blame.EstLossPct > 0.01 {
		t.Errorf("fabricated receipts should claim zero loss, got %v%%", blame.EstLossPct)
	}
}
