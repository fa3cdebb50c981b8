// Package trace generates and stores synthetic packet traces that stand
// in for the CAIDA Tier-1 traces used in the paper's evaluation
// (docs/PAPER-MAP.md's "CAIDA Tier-1 traces" row documents the
// substitution). The paper uses traces only to drive the hashing,
// sampling and aggregation machinery with a realistic packet stream —
// what matters is header entropy, a realistic packet-size mix, and
// well-defined per-path packet sequences, all of which the generator
// reproduces deterministically from a seed.
//
// The workload model: each HOP path (source/destination origin-prefix
// pair) carries a population of concurrent flows; flow sizes are
// heavy-tailed (Pareto); packet arrivals are Poisson at a configurable
// per-path rate; packet sizes follow the classic trimodal Internet mix
// (40/576/1500 bytes) weighted to a ~400-byte mean, matching the
// paper's back-of-envelope assumption.
package trace

import (
	"fmt"
	"math"

	"vpm/internal/packet"
	"vpm/internal/stats"
)

// PathSpec describes the traffic of one HOP path.
type PathSpec struct {
	// SrcPrefix and DstPrefix are the origin prefixes naming the path.
	SrcPrefix, DstPrefix packet.Prefix
	// RatePPS is the mean packet arrival rate in packets per second.
	RatePPS float64
	// ActiveFlows is the number of concurrently active flows
	// multiplexed on the path (default 32).
	ActiveFlows int
	// MeanFlowPkts is the mean flow size in packets, drawn from a
	// Pareto distribution with shape 1.5 (default 50).
	MeanFlowPkts float64
	// UDPFraction is the probability that a new flow is UDP rather
	// than TCP (default 0.2).
	UDPFraction float64
}

// Config configures a synthetic trace.
type Config struct {
	// Seed makes the trace fully deterministic.
	Seed uint64
	// DurationNS is the trace length in simulated nanoseconds.
	DurationNS int64
	// Paths lists the HOP paths carried in the trace.
	Paths []PathSpec
}

// Table builds the origin-prefix lookup table covering all paths in
// the config, for use by HOP classifiers.
func (c Config) Table() *packet.Table {
	var ps []packet.Prefix
	for _, p := range c.Paths {
		ps = append(ps, p.SrcPrefix, p.DstPrefix)
	}
	return packet.NewTable(ps)
}

// DefaultPath returns a PathSpec with the defaults documented on the
// fields, carrying ratePPS packets per second between two /16s.
func DefaultPath(ratePPS float64) PathSpec {
	return PathSpec{
		SrcPrefix:    packet.MakePrefix(10, 1, 0, 0, 16),
		DstPrefix:    packet.MakePrefix(172, 16, 0, 0, 16),
		RatePPS:      ratePPS,
		ActiveFlows:  32,
		MeanFlowPkts: 50,
		UDPFraction:  0.2,
	}
}

// flow is one active transport flow on a path.
type flow struct {
	src, dst         [4]byte
	srcPort, dstPort uint16
	proto            packet.Proto
	remaining        int
	seq              uint32
	ipid             uint16
}

// pathState is the evolving generator state of one path.
type pathState struct {
	spec     PathSpec
	rng      *stats.RNG
	flows    []flow
	nextTime int64 // SentAt of the next packet on this path
	gapNS    float64
}

// Generator produces a time-ordered packet stream for a Config. It is
// a pull-based iterator: call Next until it returns false. Generators
// are not safe for concurrent use.
type Generator struct {
	cfg   Config
	paths []*pathState

	// pending holds a packet pulled past a NextChunk limit, waiting
	// for the next call.
	pending    packet.Packet
	hasPending bool
}

// NewGenerator validates cfg and prepares a deterministic generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.DurationNS <= 0 {
		return nil, fmt.Errorf("trace: non-positive duration %d", cfg.DurationNS)
	}
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("trace: no paths configured")
	}
	root := stats.NewRNG(cfg.Seed)
	g := &Generator{cfg: cfg}
	for i, spec := range cfg.Paths {
		if spec.RatePPS <= 0 {
			return nil, fmt.Errorf("trace: path %d has non-positive rate", i)
		}
		if spec.ActiveFlows <= 0 {
			spec.ActiveFlows = 32
		}
		if spec.MeanFlowPkts <= 0 {
			spec.MeanFlowPkts = 50
		}
		ps := &pathState{
			spec:  spec,
			rng:   root.Split(),
			gapNS: 1e9 / spec.RatePPS,
		}
		ps.flows = make([]flow, spec.ActiveFlows)
		for j := range ps.flows {
			ps.flows[j] = ps.newFlow()
		}
		// Desynchronize path start times.
		ps.nextTime = int64(ps.rng.ExpFloat64() * ps.gapNS)
		g.paths = append(g.paths, ps)
	}
	return g, nil
}

// newFlow starts a fresh flow on the path.
func (ps *pathState) newFlow() flow {
	r := ps.rng
	f := flow{
		srcPort: uint16(1024 + r.Intn(64000)),
		dstPort: wellKnownPort(r),
		proto:   packet.ProtoTCP,
		seq:     r.Uint32(),
		ipid:    uint16(r.Uint32()),
	}
	if r.Bool(ps.spec.UDPFraction) {
		f.proto = packet.ProtoUDP
	}
	f.src = addrIn(ps.spec.SrcPrefix, r)
	f.dst = addrIn(ps.spec.DstPrefix, r)
	// Pareto(1.5) with mean spec.MeanFlowPkts => xm = mean/3.
	xm := ps.spec.MeanFlowPkts / 3
	if xm < 1 {
		xm = 1
	}
	f.remaining = int(math.Ceil(r.Pareto(1.5, xm)))
	if f.remaining < 1 {
		f.remaining = 1
	}
	return f
}

// wellKnownPort picks a destination port from a realistic mix.
func wellKnownPort(r *stats.RNG) uint16 {
	ports := []uint16{80, 443, 443, 443, 53, 22, 25, 8080, 3478, 5060}
	return ports[r.Intn(len(ports))]
}

// addrIn draws a host address uniformly inside prefix p.
func addrIn(p packet.Prefix, r *stats.RNG) [4]byte {
	hostBits := 32 - p.Bits
	var host uint32
	if hostBits > 0 {
		host = uint32(r.Uint64()) & (1<<uint(hostBits) - 1)
	}
	base := uint32(p.Addr[0])<<24 | uint32(p.Addr[1])<<16 | uint32(p.Addr[2])<<8 | uint32(p.Addr[3])
	v := base | host
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// packetSize draws a size from the trimodal Internet mix with a mean
// near 400 bytes (40 B with p=.55, 576 B with p=.30, 1500 B with
// p=.15).
func packetSize(r *stats.RNG) uint16 {
	u := r.Float64()
	switch {
	case u < 0.55:
		return 40
	case u < 0.85:
		return 576
	default:
		return 1500
	}
}

// Next fills p with the next packet in global time order and returns
// true, or returns false when the configured duration is exhausted.
func (g *Generator) Next(p *packet.Packet) bool {
	if g.hasPending {
		*p, g.hasPending = g.pending, false
		return true
	}
	// Pick the path with the earliest next arrival.
	var best *pathState
	for _, ps := range g.paths {
		if best == nil || ps.nextTime < best.nextTime {
			best = ps
		}
	}
	if best == nil || best.nextTime >= g.cfg.DurationNS {
		return false
	}
	best.emit(p)
	return true
}

// NextChunk pulls every remaining packet sent before limitNS — the
// epoch-sized slice a continuous pipeline feeds per interval. The
// packet stream is identical to draining Next packet by packet:
// NextChunk just cuts it at send-time boundaries (the first packet at
// or past the limit is held back for the next call). Returns nil when
// the stream has no packets before the limit.
func (g *Generator) NextChunk(limitNS int64) []packet.Packet {
	var out []packet.Packet
	var p packet.Packet
	for g.Next(&p) {
		if p.SentAt >= limitNS {
			g.pending, g.hasPending = p, true
			break
		}
		out = append(out, p)
	}
	return out
}

// emit writes the path's next packet into p and advances path state.
func (ps *pathState) emit(p *packet.Packet) {
	r := ps.rng
	fi := r.Intn(len(ps.flows))
	f := &ps.flows[fi]

	size := packetSize(r)
	*p = packet.Packet{
		TotalLen: size,
		IPID:     f.ipid,
		TTL:      64,
		Proto:    f.proto,
		Src:      f.src,
		Dst:      f.dst,
		SrcPort:  f.srcPort,
		DstPort:  f.dstPort,
		SentAt:   ps.nextTime,
	}
	if f.proto == packet.ProtoTCP {
		p.Seq = f.seq
		p.TCPFlags = 0x10 // ACK
		p.Window = 65535
		payload := int(size) - packet.IPv4HeaderLen - packet.TCPHeaderLen
		if payload < 1 {
			payload = 1
		}
		f.seq += uint32(payload)
	}
	f.ipid++
	f.remaining--
	if f.remaining <= 0 {
		*f = ps.newFlow()
	}
	ps.nextTime += int64(r.ExpFloat64() * ps.gapNS)
}

// Generate materializes the whole trace as a slice. For the rates the
// experiments use (~100k pkt/s over a few seconds) this is a few
// hundred thousand structs — fine to hold in memory.
func Generate(cfg Config) ([]packet.Packet, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var out []packet.Packet
	var p packet.Packet
	for g.Next(&p) {
		out = append(out, p)
	}
	return out, nil
}
