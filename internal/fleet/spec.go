package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// Spec is the fleet's shared world description. Every process —
// collectors, verifiers, the supervisor, the in-process reference —
// derives everything it needs deterministically from this one value:
// the topology and route table, the traffic, the per-domain signing keys,
// the domain-to-collector assignment, and the terminal epoch. Passing
// the same Spec to N processes is what makes their union output
// byte-identical to one process's: there is no state to synchronize,
// only a seed to agree on.
type Spec struct {
	// Seed drives the topology wiring, traffic, digests and signing
	// keys.
	Seed uint64 `json:"seed"`
	// Domains is the transit-domain count of the random-AS topology.
	Domains int `json:"domains"`
	// ExtraLinks is the chord-link count added to the spanning tree.
	ExtraLinks int `json:"extra_links"`
	// Keys is the distinct traffic-key count (WideKeys space, up to
	// 2^24).
	Keys int `json:"keys"`
	// Epochs is the number of traffic-carrying reporting intervals;
	// observation spill seals a few trailing empty epochs on top.
	Epochs int `json:"epochs"`
	// IntervalNS is the epoch length in simulated nanoseconds.
	IntervalNS int64 `json:"interval_ns"`
	// RatePPS is the aggregate send rate across all keys.
	RatePPS float64 `json:"rate_pps"`
	// Collectors is the collector-process count; domain d belongs to
	// collector d mod Collectors.
	Collectors int `json:"collectors"`
	// Workers is retired and ignored (bench/ still assigns it).
	Workers int `json:"workers"`
}

// Validate rejects specs that cannot produce a verifiable fleet run.
// Errors are plain validation errors (no sentinel).
func (s Spec) Validate() error {
	if s.Domains < 3 {
		return fmt.Errorf("fleet: need at least 3 domains, got %d", s.Domains)
	}
	if s.Keys < 1 || s.Keys > 1<<24 {
		return fmt.Errorf("fleet: key count %d outside [1, 2^24]", s.Keys)
	}
	if s.Epochs < 1 {
		return fmt.Errorf("fleet: need at least 1 epoch, got %d", s.Epochs)
	}
	if s.IntervalNS <= 0 {
		return fmt.Errorf("fleet: epoch interval %dns must be positive", s.IntervalNS)
	}
	if s.RatePPS <= 0 {
		return fmt.Errorf("fleet: send rate %v pps must be positive", s.RatePPS)
	}
	if s.Collectors < 1 {
		return fmt.Errorf("fleet: need at least 1 collector, got %d", s.Collectors)
	}
	if s.ExtraLinks < 0 {
		return fmt.Errorf("fleet: negative extra-links")
	}
	if s.slotsPerEpoch() < 1 {
		return fmt.Errorf("fleet: rate %v pps over %dns sends no packets per epoch", s.RatePPS, s.IntervalNS)
	}
	return nil
}

// Encode renders the spec as one-line JSON — the -spec flag value the
// supervisor hands every child process.
func (s Spec) Encode() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("fleet: spec encode: " + err.Error()) // struct of scalars, cannot fail
	}
	return string(b)
}

// ParseSpec parses Encode's output and validates it.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if err := json.Unmarshal([]byte(text), &s); err != nil {
		return Spec{}, fmt.Errorf("fleet: bad spec %q: %w", text, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// CollectorOf returns the collector-process index owning domain d.
func (s Spec) CollectorOf(domain int) int { return domain % s.Collectors }

// slotsPerEpoch is the packet count each epoch carries.
func (s Spec) slotsPerEpoch() int64 {
	return int64(math.Round(s.RatePPS * float64(s.IntervalNS) / 1e9))
}

// World is the deterministic expansion of a Spec that every fleet
// process shares: topology, routes, prefix table, key list and the
// deployment plan (HOP set, verifier constants, key layouts) — no
// per-HOP collector state, which only a collector process builds
// (NewCollector, RunReference). Every fleet process builds its own
// World from the shared Spec and they all agree, because construction
// consumes nothing but the Spec.
type World struct {
	Spec  Spec
	Topo  *netsim.Topology
	Table *packet.Table
	Plan  *core.Plan
	Keys  []packet.PathKey
	// HOPs are the routed, collector-bearing HOPs in ascending order —
	// the seal set every verifier's windowed store expects.
	HOPs []receipt.HOPID
	// Terminal is the last epoch any observation can land in, derived
	// from the worst-case route delay bound: every process seals empty
	// epochs through it so the whole fleet agrees on the final epoch
	// without communicating.
	Terminal core.EpochID
}

// deployConfig returns the fleet's deployment constants — the topo
// experiments' tuning, which keeps receipt volume sane at fleet-scale
// key counts.
func (s Spec) deployConfig() core.DeployConfig {
	cfg := core.DefaultDeployConfig()
	cfg.MarkerRate = 0.004
	cfg.Default = core.Tuning{SampleRate: 0.05, AggRate: 0.001}
	return cfg
}

// Build expands the spec into the shared world. The topology is the
// random-AS family over WideKeys; collector processes and verifier
// processes both call this and read different parts of the result.
func (s Spec) Build() (*World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	keys := netsim.WideKeys(s.Keys)
	topo := netsim.RandomASTopology(s.Seed, s.Domains, s.ExtraLinks, keys)
	prefixes := make([]packet.Prefix, 0, 2*len(keys))
	for _, k := range keys {
		prefixes = append(prefixes, k.Src, k.Dst)
	}
	table := packet.NewTable(prefixes)
	plan, err := core.NewTopoPlan(topo, table, s.deployConfig())
	if err != nil {
		return nil, err
	}
	w := &World{Spec: s, Topo: topo, Table: table, Plan: plan, Keys: keys, HOPs: plan.HOPs()}
	w.Terminal = w.terminalEpoch()
	return w, nil
}

// terminalEpoch bounds the last epoch any observation can land in:
// the last send time plus the worst-case route delay (links' delay +
// full jitter, domains' base delay + full reorder jitter + positive
// observation-clock skews; the fleet's domains are healthy, with no
// queueing process). All processes compute the same bound from the
// same spec, which replaces the cross-HOP terminal alignment a
// single-process EpochDriver.Close does in memory.
func (w *World) terminalEpoch() core.EpochID {
	pos := func(v int64) int64 {
		if v > 0 {
			return v
		}
		return 0
	}
	var maxDelay int64
	for ri := range w.Topo.Routes {
		rt := &w.Topo.Routes[ri]
		src := w.Topo.Links[rt.Links[0]].From
		acc := pos(w.Topo.Domains[src].EgressSkewNS)
		for j, li := range rt.Links {
			l := &w.Topo.Links[li]
			acc += l.DelayNS + l.JitterNS
			d := &w.Topo.Domains[w.Topo.Links[li].To]
			acc += pos(d.IngressSkewNS)
			if j+1 < len(rt.Links) {
				acc += d.BaseDelayNS + d.ReorderJitterNS + pos(d.EgressSkewNS)
			}
		}
		if acc > maxDelay {
			maxDelay = acc
		}
	}
	lastSend := w.Spec.slotTime(w.Spec.TotalSlots() - 1)
	return core.EpochID((lastSend + maxDelay) / w.Spec.IntervalNS)
}

// TotalSlots is the whole run's packet count.
func (s Spec) TotalSlots() int64 { return s.slotsPerEpoch() * int64(s.Epochs) }

// slotTime is global packet slot g's send time: slots are spread
// evenly across the run, keys round-robin across consecutive slots.
func (s Spec) slotTime(g int64) int64 {
	per := s.slotsPerEpoch()
	epoch, in := g/per, g%per
	return epoch*s.IntervalNS + in*s.IntervalNS/per
}

// PacketsForSlots materializes packets for global slots [lo, hi) in
// send order. The traffic is synthetic but wide: every key carries
// packets (slot g belongs to key g mod Keys), each packet has a
// distinct header so digests decorrelate, and timestamps are strictly
// derived from the slot index — any process materializing any slot
// range gets identical packets.
func (s Spec) PacketsForSlots(keys []packet.PathKey, lo, hi int64) []packet.Packet {
	if hi > s.TotalSlots() {
		hi = s.TotalSlots()
	}
	if lo >= hi {
		return nil
	}
	out := make([]packet.Packet, 0, hi-lo)
	for g := lo; g < hi; g++ {
		k := keys[g%int64(len(keys))]
		out = append(out, packet.Packet{
			TotalLen: 500,
			IPID:     uint16(g),
			TTL:      64,
			Proto:    packet.ProtoUDP,
			Src:      k.Src.Addr,
			Dst:      k.Dst.Addr,
			SrcPort:  uint16(33000 + (g>>16)&0x7fff),
			DstPort:  9,
			SentAt:   s.slotTime(g),
		})
	}
	return out
}

// DomainSigner derives domain d's signing key from the spec seed — 8
// seed bytes plus 4 domain bytes. The paper's principal is the domain
// (§2.3: one key pair per domain), so one key signs each sealed epoch
// of all the domain's HOPs at once. Every process derives the same
// keys, standing in for the out-of-band key distribution a real
// deployment would use.
func (s Spec) DomainSigner(d int) *dissem.Signer {
	var seed [32]byte
	binary.LittleEndian.PutUint64(seed[0:8], s.Seed)
	binary.LittleEndian.PutUint32(seed[8:12], uint32(d))
	seed[12] = 0xd0 // fleet domain-key derivation tag
	return dissem.NewSigner(seed)
}

// Registry returns the public-key registry of every collector-bearing
// HOP: each HOP maps to its domain's key.
func (w *World) Registry() dissem.Registry {
	reg := make(dissem.Registry, len(w.HOPs))
	for _, d := range w.Domains() {
		pub := w.Spec.DomainSigner(d).Public()
		for _, h := range w.DomainHOPs(d) {
			reg[h] = pub
		}
	}
	return reg
}

// Domains returns the domains with collector-bearing HOPs, ascending:
// the fleet serves one feed per domain.
func (w *World) Domains() []int {
	out := make([]int, len(w.HOPs))
	for i, h := range w.HOPs {
		out[i] = w.Topo.HOPDomain(h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// DomainHOPs returns domain d's collector-bearing HOPs, ascending.
func (w *World) DomainHOPs(d int) []receipt.HOPID {
	var out []receipt.HOPID
	for _, h := range w.HOPs {
		if w.Topo.HOPDomain(h) == d {
			out = append(out, h)
		}
	}
	return out
}

// OwnedHOPs returns the HOPs collector process i drives, in ascending
// order: the collector-bearing HOPs of every domain assigned to i.
func (w *World) OwnedHOPs(collector int) []receipt.HOPID {
	var out []receipt.HOPID
	for _, h := range w.HOPs {
		if w.Spec.CollectorOf(w.Topo.HOPDomain(h)) == collector {
			out = append(out, h)
		}
	}
	return out
}
