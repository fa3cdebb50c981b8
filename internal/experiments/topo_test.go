package experiments

import (
	"testing"
)

// testTopoCfg is a reduced-scale sweep configuration.
func testTopoCfg() Config {
	return Config{Seed: 3, RatePPS: 60000, DurationNS: 2e8}
}

// TestTopoSweep is the mesh acceptance test: every family verifies
// with the same verdicts on every run, honest worlds carry zero
// violations, and a faulty shared link is blamed on exactly its owning
// domain pair by at least two traffic keys with zero violations on the
// disjoint honest routes.
func TestTopoSweep(t *testing.T) {
	rows, err := Topo(testTopoCfg())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Topo(testTopoCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(rows) {
		t.Fatalf("%d rows, then %d from the same sweep", len(rows), len(again))
	}
	families := map[string]bool{}
	scenarios := map[string]int{}
	for i, r := range rows {
		families[r.Family] = true
		if fp := again[i].Fingerprint; fp != r.Fingerprint {
			t.Errorf("%s/%s: fingerprint diverges between identical runs: %s vs %s", r.Family, r.Scenario, r.Fingerprint, fp)
		}
		scenarios[r.Family+"/"+r.Scenario]++
		switch r.Scenario {
		case "honest":
			if r.HonestLinkViolations != 0 {
				t.Errorf("%s honest: %d violations on an honest mesh", r.Family, r.HonestLinkViolations)
			}
			if !r.Localized {
				t.Errorf("%s honest: row not marked clean", r.Family)
			}
		case "faulty-shared-link":
			if !r.Localized {
				t.Errorf("%s faulty: blame not localized to the shared link (blamed %v, honest violations %d)",
					r.Family, r.BlamedDomains, r.HonestLinkViolations)
			}
			if r.HonestLinkViolations != 0 {
				t.Errorf("%s faulty: %d violations smeared onto honest disjoint links", r.Family, r.HonestLinkViolations)
			}
			if len(r.BlamedDomains) != 2 {
				t.Errorf("%s faulty: blamed domains %v, want exactly the owning pair", r.Family, r.BlamedDomains)
			}
			if r.BlamedKeys < 2 {
				t.Errorf("%s faulty: only %d keys implicated the shared link", r.Family, r.BlamedKeys)
			}
			if r.FaultyLink == "" {
				t.Errorf("%s faulty: row does not name the faulty link", r.Family)
			}
		default:
			t.Errorf("unknown scenario %q", r.Scenario)
		}
		if r.FanIn < 2 {
			t.Errorf("%s: fan-in %d — topology shares nothing", r.Family, r.FanIn)
		}
	}
	if len(families) < 3 {
		t.Fatalf("sweep covered %d families, want at least 3", len(families))
	}
	if len(scenarios) != 2*len(families) {
		t.Errorf("%d (family, scenario) cells over %d families, want honest + faulty each", len(scenarios), len(families))
	}
	for cell, n := range scenarios {
		if n != 1 {
			t.Errorf("%s: %d rows, want one per (family, scenario)", cell, n)
		}
	}
}

// TestMeshAttackRows gates the mesh rows the attack matrix gained: the
// shared-link adversaries must be detected with blame confined to the
// shared link's HOP pair, the honest mesh must stay clean.
func TestMeshAttackRows(t *testing.T) {
	rows, err := MeshAttackRows(Config{Seed: 2, RatePPS: 50000, DurationNS: 3e8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 mesh rows, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-22s -> %-10s localized=%v evidence=%q blamed=%v", r.Adversary, r.Verdict, r.Localized, r.Evidence, r.BlamedHOPs)
		if r.Verdict == "undetected" {
			t.Errorf("%s: adversary escaped", r.Adversary)
		}
		if !r.Localized {
			t.Errorf("%s: blame not localized (blamed %v)", r.Adversary, r.BlamedHOPs)
		}
		if r.HonestLinkViolations != 0 {
			t.Errorf("%s: %d violations on honest links", r.Adversary, r.HonestLinkViolations)
		}
		if r.Adversary != "mesh-honest" {
			if r.Verdict != "detected" {
				t.Errorf("%s: verdict %q, want detected", r.Adversary, r.Verdict)
			}
			for _, h := range r.BlamedHOPs {
				if h != 1 && h != 2 {
					t.Errorf("%s: blamed HOP %d outside the shared link pair", r.Adversary, h)
				}
			}
		}
	}
}
