package main

import (
	"fmt"

	"vpm/internal/core"
	"vpm/internal/fleet"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

// workload is one frozen benchmark input. Exactly one of inproc and
// fleet is set. The sizes are per second of -seconds, tuned on a
// 2-core box so that the timed region lasts about that long; they are
// part of the benchmark's definition, like the names.
type workload struct {
	name string
	why  string
	// epochsPerSecond scales the harness iterations (in-process) with
	// -seconds.
	epochsPerSecond float64
	inproc          func(seed uint64) (*inprocWorld, error)
	fleet           func(seed uint64, seconds int) fleet.Spec
}

var workloads = []workload{
	{
		name: "fig1-stream",
		why:  "one key at 100 kpps on the Fig1 path: per-packet collection does the work, dissemination and per-key overhead almost none",
		// 25 k packets per 250 ms epoch, about 33 ms of pipeline each.
		epochsPerSecond: 30,
		inproc:          fig1World,
	},
	{
		name: "clos-zipf",
		why:  "4096 Zipf-skewed keys over a 160-HOP Clos mesh: classify misses, 160 bundles per epoch and per-key verify overhead do the work",
		// 50 k packets per 250 ms epoch, about 0.2 s of pipeline each.
		epochsPerSecond: 4.5,
		inproc:          func(seed uint64) (*inprocWorld, error) { return closWorld(seed, false, closFull) },
	},
	{
		name:            "clos-faulty-audit",
		why:             "same mesh with a lossy shared link, a suppressing HOP, the SPRT arm and a disk store read back: the blame path and durable path instead of the all-match RAM path",
		epochsPerSecond: 4,
		inproc:          func(seed uint64) (*inprocWorld, error) { return closWorld(seed, true, closFull) },
	},
	{
		name:  "fleet-http",
		why:   "2 collectors and 2 verifier shards over loopback HTTP at 2 packets per key: wire codec, per-shard download-and-filter and merge do the work",
		fleet: fleetSpec,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// epochsFor returns the timed iterations a run of the given length
// makes on w: at least 8, so that a median means something.
func (w workload) epochsFor(seconds int) int {
	return max(int(w.epochsPerSecond*float64(seconds)), 8)
}

const (
	fig1RatePPS    = 100_000
	fig1IntervalNS = 250_000_000

	closEdges, closSpines = 8, 4
	closZipfS             = 1.01
	closIntervalNS        = 250_000_000
	closFaultLoss         = 0.3
	closFaultBurst        = 8
	closSuppressFraction  = 0.2
)

// closSize is what the tests shrink; the mesh, the skew and the epoch
// length stay.
type closSize struct {
	keys    int
	ratePPS float64
}

// closFull is the benchmark's size: 50 k packets per 250 ms epoch over
// 4096 keys.
var closFull = closSize{keys: 4096, ratePPS: 200_000}

// fig1World is the paper's Figure 1 path under the experiments'
// default foreground traffic, deployed with the vpm-node defaults.
func fig1World(seed uint64) (*inprocWorld, error) {
	tc := trace.Config{
		Seed: seed,
		// The generator stops at its configured duration; a day of
		// simulated time is never reached.
		DurationNS: 86_400_000_000_000,
		Paths:      []trace.PathSpec{trace.DefaultPath(fig1RatePPS)},
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	path := netsim.Fig1Path(seed + 1000)
	dc := core.DefaultDeployConfig()
	dc.Shards = 1
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, err
	}
	runner, err := netsim.NewRunner(path)
	if err != nil {
		return nil, err
	}
	_, first := path.HOPsOf(0)
	return &inprocWorld{
		dep:        dep,
		hops:       sortedHOPs(dep),
		intervalNS: fig1IntervalNS,
		nextChunk:  gen.NextChunk,
		simulate: func(pkts []packet.Packet, obs map[receipt.HOPID]netsim.Observer, horizonNS int64) error {
			_, err := runner.RunSegment(pkts, obs, horizonNS)
			return err
		},
		layout:    dep.Layout(),
		firstHOPs: map[receipt.HOPID]bool{first: true},
	}, nil
}

// closWorld is the Clos(8,4) mesh under bench-generated Zipf traffic.
// With faulty set, the busiest shared link drops in bursts, one other
// HOP suppresses a fifth of what it sees, the sequential arm is armed
// and the window persists through a disk store.
func closWorld(seed uint64, faulty bool, size closSize) (*inprocWorld, error) {
	keys := netsim.WideKeys(size.keys)
	topo := netsim.ClosTopology(seed+5000, closEdges, closSpines, keys)
	prefixes := make([]packet.Prefix, 0, 2*len(keys))
	for _, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
	}
	table := packet.NewTable(prefixes)
	w := &inprocWorld{intervalNS: closIntervalNS, firstHOPs: make(map[receipt.HOPID]bool)}
	if faulty {
		fault := busiestSharedLink(topo)
		ge, err := lossmodel.FromTargetLoss(closFaultLoss, closFaultBurst, stats.NewRNG(seed+97))
		if err != nil {
			return nil, err
		}
		topo.Links[fault].Loss = ge
		up, down := topo.LinkHOPs(fault)
		// The liar is the ingress HOP of the last link of the first
		// route that avoids the faulty link, so the two blame sites
		// never share a HOP.
		liarLink := -1
		for ri := range topo.Routes {
			links := topo.Routes[ri].Links
			if links[0] != fault && links[len(links)-1] != fault {
				liarLink = links[len(links)-1]
				break
			}
		}
		if liarLink < 0 {
			return nil, fmt.Errorf("no route avoids link %d", fault)
		}
		liarUp, liar := topo.LinkHOPs(liarLink)
		w.wear = map[receipt.HOPID]netsim.Adversary{
			liar: &netsim.Suppressor{Fraction: closSuppressFraction, Seed: seed + 31},
		}
		w.guilty = [][2]receipt.HOPID{{up, down}, {liarUp, liar}}
		sc := seqdetect.DefaultConfig()
		w.seq = &sc
		w.disk = true
	}
	dc := core.DefaultDeployConfig()
	dc.MarkerRate = 0.01
	dc.Default.AggRate = 0.005
	dc.Shards = 1
	dep, err := core.NewTopoDeployment(topo, table, dc)
	if err != nil {
		return nil, err
	}
	runner, err := netsim.NewTopoRunner(topo, table)
	if err != nil {
		return nil, err
	}
	for ri := range topo.Routes {
		w.firstHOPs[topo.RouteHOPs(ri)[0]] = true
	}
	gen := newPopGen(seed+7000, keys, closZipfS, size.ratePPS)
	w.dep = dep
	w.hops = sortedHOPs(dep)
	w.nextChunk = gen.nextChunk
	w.simulate = func(pkts []packet.Packet, obs map[receipt.HOPID]netsim.Observer, horizonNS int64) error {
		_, err := runner.RunSegment(pkts, obs, horizonNS)
		return err
	}
	w.keyLayouts = dep.KeyLayouts()
	return w, nil
}

// busiestSharedLink returns the link crossed by the most distinct
// keys, the first such on ties.
func busiestSharedLink(t *netsim.Topology) int {
	keys := make([]map[packet.PathKey]bool, len(t.Links))
	for ri := range t.Routes {
		for _, li := range t.Routes[ri].Links {
			if keys[li] == nil {
				keys[li] = make(map[packet.PathKey]bool)
			}
			keys[li][t.Routes[ri].Key] = true
		}
	}
	best := 0
	for li := range keys {
		if len(keys[li]) > len(keys[best]) {
			best = li
		}
	}
	return best
}

// fleetSpec sizes the fleet world: two packets per key over the whole
// run, so verification is pure per-key overhead. A pass measures it
// fleetReps times, so one repetition is sized to a fifth of -seconds.
func fleetSpec(seed uint64, seconds int) fleet.Spec {
	keys := 1536 * seconds
	const epochs = 6
	return fleet.Spec{
		Seed:       seed,
		Domains:    128,
		ExtraLinks: 64,
		Keys:       keys,
		Epochs:     epochs,
		IntervalNS: 100_000_000,
		RatePPS:    float64(2*keys) / (epochs * 0.1),
		Collectors: 2,
		Workers:    1,
	}
}
