package vpm

// This file is the paper's reproduction. TestPaperResults rebuilds the
// §7 tables and figures (docs/PAPER-TABLES.md) and the verdict
// documents (BENCH_4.json, BENCH_5.json, BENCH_8.json) from
// internal/experiments and compares each byte for byte with the
// checked-in file, so a change that moves one cell or one verdict
// fails tier-1. After a deliberate change,
//
//	go test -run TestPaperResults -update .
//
// rewrites the files. Each document's assertions run first, and if any
// fails nothing is written, so -update cannot check in a regression.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpm/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the files TestPaperResults compares, once their assertions pass")

// paperDocs lists each checked-in document with the parameters it is
// generated at and the function that rebuilds and checks it.
var paperDocs = []struct {
	path  string
	cfg   experiments.Config
	build func(t *testing.T, cfg experiments.Config) []byte
}{
	// Default scale: long inter-marker gaps closed by reordered markers
	// only show up at this rate.
	{"BENCH_4.json", experiments.Config{Seed: 1, RatePPS: 100000, DurationNS: 1e9}, attacksDoc},
	{"BENCH_5.json", experiments.Config{Seed: 1, RatePPS: 100000, DurationNS: 1e9}, topoDoc},
	{"BENCH_8.json", experiments.Config{Seed: 1, RatePPS: 50000, DurationNS: 300e6}, seqdetectDoc},
	{"docs/PAPER-TABLES.md", experiments.Config{Seed: 1, RatePPS: 100000, DurationNS: 300e6}, paperTables},
}

func TestPaperResults(t *testing.T) {
	// With -update the documents are written after every subtest has
	// finished, and only if none failed: one document's failed
	// assertion keeps the others' regenerated bytes (BENCH_8.json
	// shares BENCH_4.json's matrix) from being checked in.
	built := make([][]byte, len(paperDocs))
	t.Cleanup(func() {
		if !*update {
			return
		}
		if t.Failed() {
			t.Log("-update wrote nothing: an assertion failed")
			return
		}
		for i, d := range paperDocs {
			if built[i] == nil {
				continue // filtered out by -run
			}
			if err := os.WriteFile(d.path, built[i], 0o644); err != nil {
				t.Error(err)
			}
		}
	})
	for i, d := range paperDocs {
		name := filepath.Base(d.path)
		t.Run(strings.TrimSuffix(name, filepath.Ext(name)), func(t *testing.T) {
			t.Parallel()
			got := d.build(t, d.cfg)
			if t.Failed() {
				t.Fatalf("%s not compared: its assertions failed", d.path)
			}
			if *update {
				built[i] = got
				return
			}
			want, err := os.ReadFile(d.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from what the experiments produce (if the change is deliberate, rerun with -update); %s", d.path, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line on which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Sprintf("first at line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
}

// docHeader opens each JSON document with the parameters it was
// generated at.
type docHeader struct {
	Experiment string  `json:"experiment"`
	Seed       uint64  `json:"seed"`
	RatePPS    float64 `json:"rate_pps"`
	DurationNS int64   `json:"duration_ns"`
}

func header(experiment string, cfg experiments.Config) docHeader {
	return docHeader{experiment, cfg.Seed, cfg.RatePPS, cfg.DurationNS}
}

func jsonDoc(t *testing.T, doc any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// attacksDoc is BENCH_4.json, the scenario-coverage document: every
// adversary × pipeline mode with its verdict and blame, plus the
// cross-protocol ablation for context. No adversary may escape and no
// blame may leave its implicated set, the mesh rows included.
func attacksDoc(t *testing.T, cfg experiments.Config) []byte {
	matrix, err := experiments.AttackMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablation, err := experiments.Attacks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) < 23 {
		t.Errorf("%d matrix rows, want at least 23", len(matrix))
	}
	mesh, meshDetected := 0, false
	for _, r := range matrix {
		if r.Verdict == "undetected" || !r.Localized || r.HonestLinkViolations != 0 {
			t.Errorf("%s/%s: verdict %s, localized %v, %d honest-link violations", r.Adversary, r.Mode, r.Verdict, r.Localized, r.HonestLinkViolations)
		}
		if strings.HasPrefix(r.Adversary, "mesh-") {
			mesh++
			meshDetected = meshDetected || r.Verdict == "detected"
		}
	}
	if mesh < 3 || !meshDetected {
		t.Errorf("%d mesh rows (want at least 3), one detected: %v", mesh, meshDetected)
	}
	return jsonDoc(t, struct {
		docHeader
		Rows     []experiments.MatrixRow `json:"rows"`
		Ablation []experiments.AttackRow `json:"ablation"`
	}{header("attacks", cfg), matrix, ablation})
}

// topoDoc is BENCH_5.json, the mesh topology sweep: at least three
// families, each faulty shared link blamed on exactly its owning
// domain pair, honest routes violation-free, and one verdict
// fingerprint per (family, scenario).
func topoDoc(t *testing.T, cfg experiments.Config) []byte {
	rows, err := experiments.Topo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	fingerprints := map[[2]string]map[string]bool{}
	for _, r := range rows {
		families[r.Family] = true
		switch r.Scenario {
		case "faulty-shared-link":
			if !r.Localized || r.HonestLinkViolations != 0 || len(r.BlamedDomains) != 2 {
				t.Errorf("%s faulty: localized %v, %d honest-link violations, blamed %v (want the owning pair)", r.Family, r.Localized, r.HonestLinkViolations, r.BlamedDomains)
			}
		case "honest":
			if r.HonestLinkViolations != 0 {
				t.Errorf("%s honest: %d violations", r.Family, r.HonestLinkViolations)
			}
		}
		k := [2]string{r.Family, r.Scenario}
		if fingerprints[k] == nil {
			fingerprints[k] = map[string]bool{}
		}
		fingerprints[k][r.Fingerprint] = true
	}
	if len(families) < 3 {
		t.Errorf("%d topology families, want at least 3", len(families))
	}
	for k, fps := range fingerprints {
		if len(fps) != 1 {
			t.Errorf("%s/%s: %d verdict fingerprints, want one", k[0], k[1], len(fps))
		}
	}
	return jsonDoc(t, struct {
		docHeader
		Rows []experiments.TopoRow `json:"rows"`
	}{header("topo", cfg), rows})
}

// seqdetectDoc is BENCH_8.json, the sequential-detection frontier plus
// the matrix rows with their epochs-to-verdict columns: every row
// judged, the SPRT no later than the batch checks on every
// batch-detected packet-evidence row, and some adaptive adversary
// caught below 1.0 epochs — before a batch judgment was possible.
func seqdetectDoc(t *testing.T, cfg experiments.Config) []byte {
	frontier, err := experiments.SeqFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := experiments.AttackMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) == 0 || len(matrix) == 0 {
		t.Errorf("%d frontier rows, %d matrix rows", len(frontier), len(matrix))
	}
	adaptive := false
	for _, r := range matrix {
		if r.Verdict == "undetected" || !r.Localized {
			t.Errorf("%s/%s: verdict %s, localized %v", r.Adversary, r.Mode, r.Verdict, r.Localized)
		}
		if r.Mode != "continuous" {
			continue
		}
		if (r.Layer == "data-plane" || r.Layer == "control-plane") && r.BatchEpochsToVerdict > 0 &&
			(!r.SeqDetected || r.SeqEpochsToVerdict > r.BatchEpochsToVerdict) {
			t.Errorf("%s: sequential arm (detected %v, %.2f epochs) later than batch (%.0f)", r.Adversary, r.SeqDetected, r.SeqEpochsToVerdict, r.BatchEpochsToVerdict)
		}
		if strings.HasPrefix(r.Adversary, "adaptive-") && r.SeqDetected && r.SeqEpochsToVerdict > 0 && r.SeqEpochsToVerdict < 1 {
			adaptive = true
		}
	}
	if !adaptive {
		t.Error("no adaptive row crossed below 1.0 epochs")
	}
	return jsonDoc(t, struct {
		docHeader
		Frontier []experiments.SeqFrontierRow `json:"frontier"`
		Matrix   []experiments.MatrixRow      `json:"matrix"`
	}{header("seqdetect", cfg), frontier, matrix})
}

// paperTables is docs/PAPER-TABLES.md: the paper's §7 tables and
// figures as Markdown, its first line the parameters they ran at.
func paperTables(t *testing.T, cfg experiments.Config) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# The paper's evaluation at seed %d, %g packets/s, %d ms per experiment point\n\n", cfg.Seed, cfg.RatePPS, cfg.DurationNS/1e6)
	b.WriteString("Rebuilt from `internal/experiments` and compared byte for byte by\n`TestPaperResults` in `paper_test.go`; `go test -run TestPaperResults -update .`\nrewrites it. `docs/PAPER-MAP.md` maps each table to its code.\n")
	section := func(title, table string) {
		fmt.Fprintf(&b, "\n## %s\n\n%s", title, table)
	}
	must := func(table string, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	table1 := experiments.Table1Render(experiments.Table1())
	if strings.Contains(table1, "VIOLATED") {
		t.Errorf("partition algebra violated:\n%s", table1)
	}
	section("Table 1 — partitions, coarser-than, joins", table1)
	fig2, err := experiments.Fig2(cfg)
	section("Figure 2 — delay accuracy [ms] vs sampling rate, per loss level", must(experiments.Fig2Render(fig2), err))
	fig3, err := experiments.Fig3(cfg)
	section("Figure 3 — loss granularity [sec] vs loss rate", must(experiments.Fig3Render(fig3), err))
	section("§7.1 — memory overhead (paper arithmetic vs this implementation)", experiments.MemoryRender(experiments.MemoryOverhead()))
	bandwidth, err := experiments.BandwidthOverhead(cfg)
	// §7.1's deployability case rests on receipt bandwidth: the measured
	// Fig.1 overhead stays within 1.25× the analytic figure for
	// full-width records. The factor was fixed before the compact
	// receipt layout was measured against it (1.61× with fixed-width
	// receipts).
	const measuredOverAnalytic = 1.25
	measured := 0
	for _, r := range bandwidth {
		if r.MeasuredBytesPerPkt < 0 {
			continue
		}
		measured++
		if r.MeasuredBytesPerPkt > measuredOverAnalytic*r.Analytic.BytesPerPacket {
			t.Errorf("%s: measured %.3f B/pkt, above %.2f × the analytic %.3f", r.Scenario, r.MeasuredBytesPerPkt, measuredOverAnalytic, r.Analytic.BytesPerPacket)
		}
	}
	if err == nil && measured == 0 {
		t.Error("no measured bandwidth row")
	}
	section("§7.1 — receipt bandwidth overhead", must(experiments.BandwidthRender(bandwidth), err))
	verif, err := experiments.Verifiability(cfg)
	section("§7.2 — verifiability vs the witness's sampling rate", must(experiments.VerifiabilityRender(verif), err))
	return []byte(b.String())
}
