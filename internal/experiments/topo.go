package experiments

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"vpm/internal/adversary"
	"vpm/internal/core"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// This file sweeps the mesh topology families: for each named family
// (star, tree, Clos-like ECMP fabric, random AS graph) it runs the
// full pipeline — many origin-prefix keys multiplexed over shared
// links, cross-traffic included — honest and with a lossy shared link,
// and verifies every (key, route) against the per-route layouts. The
// blame columns prove the §3.1 localization claim on meshes: the shared
// link's own domain pair is implicated by every key crossing it, and
// the honest disjoint routes carry zero violations.

// TopoFaultLoss is the loss rate injected on the faulty shared link.
const TopoFaultLoss = 0.3

// TopoRow is one line of the topology sweep — the row schema of
// BENCH_5.json.
type TopoRow struct {
	Family   string `json:"family"`
	Scenario string `json:"scenario"` // "honest" or "faulty-shared-link"
	Domains  int    `json:"domains"`
	Links    int    `json:"links"`
	HOPs     int    `json:"hops"`
	// PathKeys counts the verified foreground keys; Background counts
	// keys routed across the mesh (loading the shared queues and
	// collectors) but not verified — cross-traffic.
	PathKeys   int `json:"path_keys"`
	Background int `json:"background_keys"`
	Routes     int `json:"routes"`
	// FanIn is the largest number of distinct keys sharing one link.
	FanIn   int `json:"fan_in"`
	Packets int `json:"packets"`
	// LinkChecks counts the per-(key, route) link verifications of the
	// sweep's one epoch.
	LinkChecks     int   `json:"link_checks"`
	MatchedSamples int64 `json:"matched_samples"`
	// FaultyLink names the injected faulty link ("leaf0-hub"), empty on
	// honest rows. BlamedDomains is the union of domains the merged
	// blame implicates; BlamedKeys is how many distinct keys implicated
	// the faulty link; HonestLinkViolations counts violations on any
	// other link (must be zero); Localized reports blame confined to
	// the faulty link's own HOP pair.
	FaultyLink           string   `json:"faulty_link,omitempty"`
	BlamedDomains        []string `json:"blamed_domains,omitempty"`
	BlamedKeys           int      `json:"blamed_keys"`
	HonestLinkViolations int      `json:"honest_link_violations"`
	Localized            bool     `json:"localized"`
	// Fingerprint is a digest of the full verdict text.
	Fingerprint string `json:"fingerprint"`
}

// topoFamily describes one named topology family at sweep scale.
type topoFamily struct {
	name       string
	keys       int // verified foreground keys
	background int // routed but unverified cross-traffic keys
	build      func(seed uint64, keys []packet.PathKey) *netsim.Topology
}

// topoFamilies returns the sweep roster: ≥3 families spanning fan-in
// shapes (one hot access link, a shared tree backbone, ECMP fan-out,
// organic overlap).
func topoFamilies() []topoFamily {
	return []topoFamily{
		{
			name: "star", keys: 8, background: 1,
			build: func(seed uint64, keys []packet.PathKey) *netsim.Topology {
				return netsim.StarTopology(seed, 6, keys)
			},
		},
		{
			name: "tree", keys: 4, background: 0,
			build: func(seed uint64, keys []packet.PathKey) *netsim.Topology {
				return netsim.TreeTopology(seed, 2, 2, keys)
			},
		},
		{
			name: "clos", keys: 4, background: 1,
			build: func(seed uint64, keys []packet.PathKey) *netsim.Topology {
				return netsim.ClosTopology(seed, 3, 2, keys)
			},
		},
		{
			name: "random-as", keys: 6, background: 0,
			build: func(seed uint64, keys []packet.PathKey) *netsim.Topology {
				return netsim.RandomASTopology(seed, 8, 3, keys)
			},
		},
	}
}

// topoDeployConfig samples densely enough that every per-key link
// check sees a meaningful population at bench scale.
func topoDeployConfig() core.DeployConfig {
	dc := core.DefaultDeployConfig()
	dc.MarkerRate = 0.004
	dc.Default.SampleRate = 0.05
	dc.Default.AggRate = 0.001
	return dc
}

// busiestSharedLink returns the shared link crossed by the most
// distinct keys (first by link order on ties), or -1 when nothing is
// shared.
func busiestSharedLink(t *netsim.Topology) int {
	best, bestKeys := -1, 0
	for _, li := range t.SharedLinks() {
		keys := make(map[packet.PathKey]bool)
		for ri := range t.Routes {
			for _, l := range t.Routes[ri].Links {
				if l == li {
					keys[t.Routes[ri].Key] = true
				}
			}
		}
		if len(keys) > bestKeys {
			best, bestKeys = li, len(keys)
		}
	}
	return best
}

// topoWorld is one built-and-run mesh pipeline, ready to verify.
type topoWorld struct {
	topo    *netsim.Topology
	dep     *core.Deployment
	fgKeys  []packet.PathKey
	packets int
}

// runTopoWorld builds the family's topology (optionally with the
// faulty shared link), deploys, dresses any worn HOPs in their
// data-plane adversaries, and replays the
// multi-key trace through the mesh engine.
func runTopoWorld(cfg Config, f topoFamily, faultyLink bool, wear map[receipt.HOPID]netsim.Adversary) (*topoWorld, int, error) {
	allKeys := netsim.TopoKeys(f.keys + f.background)
	topo := f.build(cfg.Seed+5000, allKeys)
	fault := -1
	if faultyLink {
		fault = busiestSharedLink(topo)
		if fault < 0 {
			return nil, -1, fmt.Errorf("experiments: family %s has no shared link to break", f.name)
		}
		ge, err := lossmodel.FromTargetLoss(TopoFaultLoss, 8, stats.NewRNG(cfg.Seed+97))
		if err != nil {
			return nil, -1, err
		}
		topo.Links[fault].Loss = ge
	}
	tc := trace.Config{Seed: cfg.Seed + 7000, DurationNS: cfg.DurationNS}
	perKey := cfg.RatePPS / float64(len(allKeys))
	for _, k := range allKeys {
		tc.Paths = append(tc.Paths, trace.PathSpec{
			SrcPrefix:    k.Src,
			DstPrefix:    k.Dst,
			RatePPS:      perKey,
			ActiveFlows:  8,
			MeanFlowPkts: 50,
			UDPFraction:  0.2,
		})
	}
	pkts, err := trace.Generate(tc)
	if err != nil {
		return nil, -1, err
	}
	dep, err := core.NewTopoDeployment(topo, tc.Table(), topoDeployConfig())
	if err != nil {
		return nil, -1, err
	}
	observers := dep.Observers()
	for hop, adv := range wear {
		if obs, ok := observers[hop]; ok && adv != nil {
			observers[hop] = netsim.Wear(hop, adv, obs)
		}
	}
	if _, err := topo.Run(tc.Table(), pkts, observers); err != nil {
		return nil, -1, err
	}
	dep.Finalize()
	return &topoWorld{
		topo:    topo,
		dep:     dep,
		fgKeys:  allKeys[:f.keys],
		packets: len(pkts),
	}, fault, nil
}

// topoSweep verifies the world as one epoch (Deployment.VerifyOnce) and
// returns, over the foreground keys' (key, route) reports, the verdict
// text (for fingerprinting), the per-key blames, all link verdicts, and
// the matched-sample and link-check totals. Each (Up, Down) pair is
// checked once, on the route that owns it (core.OwnedLinks), so the
// tallies count distinct link verifications, not route multiplicity.
func (w *topoWorld) topoSweep(confidence float64) (string, map[packet.PathKey][]core.Blame, []core.LinkVerdict, int64, int, error) {
	rep, err := w.dep.VerifyOnce(w.dep.VerifierConfig(), confidence, w.dep.Seal)
	if err != nil {
		return "", nil, nil, 0, 0, err
	}
	byKey := make(map[packet.PathKey][]core.EpochKeyReport)
	for _, kr := range rep.Keys {
		byKey[kr.Key] = append(byKey[kr.Key], kr)
	}
	perKey := make(map[packet.PathKey][]core.Blame)
	var all []core.LinkVerdict
	var matched int64
	var text strings.Builder
	for _, key := range w.fgKeys {
		for _, kr := range byKey[key] {
			fmt.Fprintf(&text, "key %v route %d\n", key, kr.Route)
			for _, lv := range kr.Links {
				matched += int64(lv.MatchedSamples)
				fmt.Fprintf(&text, "  %+v\n", lv)
			}
			for _, dr := range kr.Domains {
				fmt.Fprintf(&text, "  %+v\n", dr)
			}
			all = append(all, kr.Links...)
			perKey[key] = append(perKey[key], kr.Blames...)
		}
	}
	return text.String(), perKey, all, matched, len(all), nil
}

// Topo runs the topology sweep: per family, an honest row, then the
// faulty-shared-link row.
func Topo(cfg Config) ([]TopoRow, error) {
	cfg = cfg.Normalize()
	var rows []TopoRow
	for _, f := range topoFamilies() {
		for _, faulty := range []bool{false, true} {
			row, err := topoScenarioRow(cfg, f, faulty)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// topoScenarioRow runs one (family, scenario).
func topoScenarioRow(cfg Config, f topoFamily, faulty bool) (TopoRow, error) {
	world, fault, err := runTopoWorld(cfg, f, faulty, nil)
	if err != nil {
		return TopoRow{}, err
	}
	text, perKey, verdicts, matched, checks, err := world.topoSweep(cfg.Confidence)
	if err != nil {
		return TopoRow{}, err
	}
	sum := sha256.Sum256([]byte(text))
	row := TopoRow{
		Family:         f.name,
		Scenario:       "honest",
		Domains:        len(world.topo.Domains),
		Links:          len(world.topo.Links),
		HOPs:           world.topo.NumHOPs(),
		PathKeys:       len(world.fgKeys),
		Background:     f.background,
		Routes:         len(world.topo.Routes),
		FanIn:          world.topo.MaxFanIn(),
		Packets:        world.packets,
		LinkChecks:     checks,
		MatchedSamples: matched,
		Fingerprint:    fmt.Sprintf("%x", sum[:8]),
	}
	if faulty {
		row.Scenario = "faulty-shared-link"
		judgeTopoBlame(&row, world, fault, perKey, verdicts)
	} else {
		// Honest world: any violation anywhere is a false positive.
		for _, lv := range verdicts {
			row.HonestLinkViolations += len(lv.Violations)
		}
		row.Localized = row.HonestLinkViolations == 0
	}
	return row, nil
}

// judgeTopoBlame fills the blame columns of a faulty-shared-link row:
// the merged findings must implicate exactly the faulty link's HOP
// pair, every foreground key crossing the link must contribute, and no
// other link may carry a violation.
func judgeTopoBlame(row *TopoRow, world *topoWorld, fault int, perKey map[packet.PathKey][]core.Blame, verdicts []core.LinkVerdict) {
	topo := world.topo
	eg, in := topo.LinkHOPs(fault)
	row.FaultyLink = topo.Domains[topo.Links[fault].From].Name + "-" + topo.Domains[topo.Links[fault].To].Name
	merged := core.MergeBlames(perKey)
	domSet := make(map[string]bool)
	localized := len(merged) > 0
	for _, sb := range merged {
		for _, h := range sb.HOPs {
			if h != eg && h != in {
				localized = false
			}
		}
		for _, d := range sb.Domains {
			domSet[d] = true
		}
		if sb.Keys > row.BlamedKeys {
			row.BlamedKeys = sb.Keys
		}
	}
	for d := range domSet {
		row.BlamedDomains = append(row.BlamedDomains, d)
	}
	sort.Strings(row.BlamedDomains)
	for _, lv := range verdicts {
		if lv.Up == eg && lv.Down == in {
			continue
		}
		row.HonestLinkViolations += len(lv.Violations)
	}
	row.Localized = localized && row.HonestLinkViolations == 0
}

// MeshAttackRows extends the Byzantine attack matrix onto a mesh: a
// star topology whose access link is shared by every key, with
// data-plane adversaries mounted on the shared link's HOPs. The rows
// prove that an adversary on a *shared* link is detected with blame
// confined to that link's HOP pair — across every traffic key — while
// the disjoint honest routes stay violation-free (no smearing).
func MeshAttackRows(cfg Config) ([]MatrixRow, error) {
	cfg = cfg.Normalize()
	keys := netsim.TopoKeys(4)
	scenarios := []struct {
		name     string
		wear     func() map[receipt.HOPID]netsim.Adversary
		expectEv []core.EvidenceClass
		honest   bool
		note     string
	}{
		{
			name:   "mesh-honest",
			honest: true,
			note:   "reference mesh row: shared access link telling the truth",
		},
		{
			name: "mesh-suppress-shared",
			wear: func() map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{2: &netsim.Suppressor{Fraction: 0.3, Seed: 99}}
			},
			expectEv: []core.EvidenceClass{core.EvMissingReceipt, core.EvInconsistentAggregate},
			note:     "hub under-reports the shared access link: every key exposes it at leaf0-hub",
		},
		{
			name: "mesh-shave-shared",
			wear: func() map[receipt.HOPID]netsim.Adversary {
				return map[receipt.HOPID]netsim.Adversary{1: &adversary.DelayShaver{ShaveNS: 3_000_000}}
			},
			expectEv: []core.EvidenceClass{core.EvDelayBound},
			note:     "leaf0 shaves its egress clocks: MaxDiff blown on the shared link for every key",
		},
	}
	meshFamily := topoFamily{
		name: "star", keys: len(keys),
		build: func(seed uint64, ks []packet.PathKey) *netsim.Topology {
			return netsim.StarTopology(seed, 5, ks)
		},
	}
	var rows []MatrixRow
	for _, sc := range scenarios {
		var wear map[receipt.HOPID]netsim.Adversary
		if sc.wear != nil {
			wear = sc.wear()
		}
		world, _, err := runTopoWorld(cfg, meshFamily, false, wear)
		if err != nil {
			return nil, err
		}
		_, perKeyBlames, verdicts, _, _, err := world.topoSweep(cfg.Confidence)
		if err != nil {
			return nil, err
		}

		// Shared access link = link 0 (leaf0 egress HOP 1, hub ingress
		// HOP 2) — the only allowed implicated set.
		eg, in := world.topo.LinkHOPs(0)
		allowed := map[receipt.HOPID]bool{eg: true, in: true}
		allowedEv := make(map[core.EvidenceClass]bool)
		for _, e := range sc.expectEv {
			allowedEv[e] = true
		}
		row := MatrixRow{Adversary: sc.name, Layer: "data-plane", Mode: "batch", Note: sc.note}
		blamed := make(map[receipt.HOPID]bool)
		evSeen := make(map[string]bool)
		localized := true
		detected := false
		for _, lv := range verdicts {
			if !allowed[lv.Up] && !allowed[lv.Down] {
				row.HonestLinkViolations += len(lv.Violations)
			}
		}
		for _, key := range world.fgKeys {
			for _, b := range perKeyBlames[key] {
				detected = true
				evSeen[b.Evidence.String()] = true
				inSet := true
				for _, h := range b.HOPs {
					blamed[h] = true
					if !allowed[h] {
						inSet = false
					}
				}
				if !inSet || (len(allowedEv) > 0 && !allowedEv[b.Evidence]) {
					localized = false
				}
			}
		}
		for ev := range evSeen {
			row.Evidence = appendCSV(row.Evidence, ev)
		}
		row.Evidence = sortCSV(row.Evidence)
		for h := range blamed {
			row.BlamedHOPs = append(row.BlamedHOPs, uint32(h))
		}
		sort.Slice(row.BlamedHOPs, func(i, j int) bool { return row.BlamedHOPs[i] < row.BlamedHOPs[j] })
		switch {
		case sc.honest && !detected:
			row.Verdict = "honest"
			row.Localized = row.HonestLinkViolations == 0
		case sc.honest:
			row.Verdict = "undetected"
			row.Note = "FALSE POSITIVE: " + row.Note
		case detected:
			row.Verdict = "detected"
			row.Localized = localized && row.HonestLinkViolations == 0
		default:
			row.Verdict = "undetected"
		}
		rows = append(rows, row)
	}
	return rows, nil
}
