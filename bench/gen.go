package main

import (
	"math"
	"sort"

	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// This file is the bench's own load generation: a seeded packet
// generator over a Zipf-ranked key population, an observer that
// records what the simulator delivers, and the replayer that hands the
// recording to the program under test. The pipeline never sees the
// simulator — only the recorded observation batches.

// popGen emits a Poisson packet stream whose traffic key is drawn per
// packet from a Zipf(s) rank distribution over keys. trace.Generator
// picks the next packet by scanning every path's next send time, which
// is quadratic at thousands of keys; here a packet costs one binary
// search in the cumulative weights. Rank r maps to keys[r] directly,
// so the hot keys sit on the same routes for every seed and only the
// draws change between seeds.
type popGen struct {
	rng   *stats.RNG
	keys  []packet.PathKey
	cdf   []float64 // cumulative rank weights, cdf[len-1] == 1
	sent  []uint32  // per-key packet ordinal: keeps headers distinct
	gapNS float64   // mean inter-send gap
	next  int64     // send time of the next packet
	buf   []packet.Packet
}

func newPopGen(seed uint64, keys []packet.PathKey, zipfS, ratePPS float64) *popGen {
	g := &popGen{
		rng:   stats.NewRNG(seed),
		keys:  keys,
		cdf:   make([]float64, len(keys)),
		sent:  make([]uint32, len(keys)),
		gapNS: 1e9 / ratePPS,
	}
	sum := 0.0
	for r := range g.cdf {
		sum += math.Pow(float64(r+1), -zipfS)
		g.cdf[r] = sum
	}
	for r := range g.cdf {
		g.cdf[r] /= sum
	}
	g.cdf[len(g.cdf)-1] = 1
	g.next = int64(g.rng.ExpFloat64() * g.gapNS)
	return g
}

// nextChunk returns, in send order, every packet sent before limitNS.
// The slice is reused by the following call.
func (g *popGen) nextChunk(limitNS int64) []packet.Packet {
	g.buf = g.buf[:0]
	for g.next < limitNS {
		ki := sort.SearchFloat64s(g.cdf, g.rng.Float64())
		n := g.sent[ki]
		g.sent[ki]++
		k := g.keys[ki]
		g.buf = append(g.buf, packet.Packet{
			TotalLen: packetSize(g.rng),
			IPID:     uint16(n),
			TTL:      64,
			Proto:    packet.ProtoTCP,
			Src:      k.Src.Addr,
			Dst:      k.Dst.Addr,
			SrcPort:  uint16(1024 + n>>16),
			DstPort:  443,
			Seq:      g.rng.Uint32(),
			TCPFlags: 0x10,
			Window:   65535,
			SentAt:   g.next,
		})
		g.next += 1 + int64(g.rng.ExpFloat64()*g.gapNS)
	}
	return g.buf
}

// packetSize draws from the trimodal Internet mix trace.Generator uses.
func packetSize(r *stats.RNG) uint16 {
	switch u := r.Float64(); {
	case u < 0.55:
		return 40
	case u < 0.85:
		return 576
	default:
		return 1500
	}
}

// recorder is a netsim observer that keeps what it is shown. The
// simulator's packet pointers are only valid during the call, so every
// packet is copied.
type recorder struct {
	pkts []packet.Packet
	obs  []netsim.Observation
	// batches is the recording cut into arrival-ordered slices of at
	// most netsim.ReplayBatchSize observations — the granularity the
	// simulator itself delivers at. Set by seal, valid until reset.
	batches [][]netsim.Observation
}

func (r *recorder) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	r.pkts = append(r.pkts, *pkt)
	r.obs = append(r.obs, netsim.Observation{Digest: digest, TimeNS: tNS})
}

func (r *recorder) ObserveBatch(batch []netsim.Observation) {
	for i := range batch {
		r.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

func (r *recorder) reset() {
	r.pkts, r.obs, r.batches = r.pkts[:0], r.obs[:0], r.batches[:0]
}

// seal ends a recording: the observations are pointed at their packet
// copies (only now, because append may have moved them) and cut into
// batches.
func (r *recorder) seal() {
	for i := range r.obs {
		r.obs[i].Pkt = &r.pkts[i]
	}
	for lo := 0; lo < len(r.obs); lo += netsim.ReplayBatchSize {
		hi := min(lo+netsim.ReplayBatchSize, len(r.obs))
		r.batches = append(r.batches, r.obs[lo:hi])
	}
}

// recorders is one recorder per HOP, addressable as the simulator's
// observer map. Distinct pointer-typed observers replay concurrently
// inside RunSegment, each from one goroutine, so recorders need no
// locks.
type recorders struct {
	hops  []receipt.HOPID // ascending
	byHOP map[receipt.HOPID]*recorder
}

func newRecorders(hops []receipt.HOPID) *recorders {
	rs := &recorders{hops: hops, byHOP: make(map[receipt.HOPID]*recorder, len(hops))}
	for _, h := range hops {
		rs.byHOP[h] = &recorder{}
	}
	return rs
}

// observers returns the simulator-facing map; HOPs named in wear
// record through their adversary, so the lie is part of the generated
// input, not of the program under test.
func (rs *recorders) observers(wear map[receipt.HOPID]netsim.Adversary) map[receipt.HOPID]netsim.Observer {
	out := make(map[receipt.HOPID]netsim.Observer, len(rs.hops))
	for _, h := range rs.hops {
		out[h] = netsim.Wear(h, wear[h], rs.byHOP[h])
	}
	return out
}

func (rs *recorders) reset() {
	for _, r := range rs.byHOP {
		r.reset()
	}
}

func (rs *recorders) seal() {
	for _, r := range rs.byHOP {
		r.seal()
	}
}

// count returns the observations currently recorded across all HOPs.
func (rs *recorders) count() int {
	n := 0
	for _, r := range rs.byHOP {
		n += len(r.obs)
	}
	return n
}
