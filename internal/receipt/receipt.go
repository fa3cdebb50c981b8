// Package receipt defines the traffic receipts at the heart of VPM
// (paper §4): receipts for sets of delay-sampled packets and receipts
// for packet aggregates, together with the combination operator (⊎),
// the inter-domain consistency rules, and compact wire encodings.
//
// A receipt is produced by a HOP (hand-off point) for traffic on one
// HOP path and is disseminated to every domain that observed that
// traffic. Verifiers compare receipts from the two HOPs at the ends of
// an inter-domain link: honest receipts agree (timestamps within
// MaxDiff; equal aggregate packet counts), and a lie shows up as an
// inconsistency that exposes the liar to the neighbor it implicated.
package receipt

import (
	"fmt"
	"strconv"

	"vpm/internal/intern"
	"vpm/internal/packet"
)

// HOPID identifies a hand-off point. The paper numbers HOPs 1..8 in
// its running example (Figure 1).
type HOPID uint32

// AppendText appends "HOP<n>" to dst.
func (h HOPID) AppendText(dst []byte) []byte {
	dst = append(dst, 'H', 'O', 'P')
	return strconv.AppendUint(dst, uint64(h), 10)
}

// String renders the HOP id. A deployment has a handful of HOPs whose
// names recur in every verdict and store key, so the rendering is
// interned: one allocation per distinct HOP per process.
func (h HOPID) String() string {
	var buf [14]byte
	return intern.Bytes(h.AppendText(buf[:0]))
}

// PathID names the HOP path a receipt belongs to, as seen from the
// reporting HOP: the header specification (source and destination
// origin prefixes), the previous and next HOPs on the path, and the
// MaxDiff bound agreed with the HOP across the shared inter-domain
// link (paper §4, "Traffic Receipts").
type PathID struct {
	Key       packet.PathKey `json:"key"`
	PrevHOP   HOPID          `json:"prev_hop"`
	NextHOP   HOPID          `json:"next_hop"`
	MaxDiffNS int64          `json:"max_diff_ns"`
}

// String renders the PathID compactly.
func (p PathID) String() string {
	return fmt.Sprintf("%s prev=%s next=%s maxdiff=%dns", p.Key, p.PrevHOP, p.NextHOP, p.MaxDiffNS)
}

// Compare totally orders PathIDs: by origin-prefix pair, then previous
// and next HOP, then MaxDiff. Collectors use it to drain receipts in a
// deterministic order instead of map-iteration order.
func (p PathID) Compare(q PathID) int {
	if c := p.Key.Compare(q.Key); c != 0 {
		return c
	}
	switch {
	case p.PrevHOP < q.PrevHOP:
		return -1
	case p.PrevHOP > q.PrevHOP:
		return 1
	case p.NextHOP < q.NextHOP:
		return -1
	case p.NextHOP > q.NextHOP:
		return 1
	case p.MaxDiffNS < q.MaxDiffNS:
		return -1
	case p.MaxDiffNS > q.MaxDiffNS:
		return 1
	}
	return 0
}

// SampleRecord is one delay-sampled measurement: the packet's digest
// and the time the reporting HOP observed it.
type SampleRecord struct {
	PktID  uint64 `json:"pkt_id"`
	TimeNS int64  `json:"time_ns"`
}

// SampleReceipt is a receipt for a set of sampled packets:
// R = 〈PathID, Samples〉.
type SampleReceipt struct {
	Path    PathID         `json:"path"`
	Samples []SampleRecord `json:"samples"`
}

// AggID identifies a packet aggregate by the digests of its first and
// last packets.
type AggID struct {
	First uint64 `json:"first"`
	Last  uint64 `json:"last"`
}

// AggReceipt is a receipt for a packet aggregate:
// R = 〈PathID, AggID, PktCnt, AggTrans〉. AggTrans is the §6.3
// extension: the packet identifiers observed within a window of 2J
// around the aggregate's cutting point, in observation order, which a
// verifier uses to re-align receipts under reordering.
type AggReceipt struct {
	Path     PathID         `json:"path"`
	Agg      AggID          `json:"agg"`
	PktCnt   uint64         `json:"pkt_cnt"`
	AggTrans []SampleRecord `json:"agg_trans,omitempty"`
}

// CombineSamples implements the ⊎ operator for sample receipts: the
// union of the sample sets under a common PathID. Receipts must share
// the PathID; the result's samples preserve input order.
func CombineSamples(rs ...SampleReceipt) (SampleReceipt, error) {
	if len(rs) == 0 {
		return SampleReceipt{}, fmt.Errorf("receipt: combining zero sample receipts")
	}
	out := SampleReceipt{Path: rs[0].Path}
	for i, r := range rs {
		if r.Path != rs[0].Path {
			return SampleReceipt{}, fmt.Errorf("receipt: sample receipt %d has PathID %v, want %v", i, r.Path, rs[0].Path)
		}
		out.Samples = append(out.Samples, r.Samples...)
	}
	return out, nil
}

// CombineAggregates implements the ⊎ operator for N consecutive
// aggregate receipts from a single HOP: the combined receipt covers
// the union aggregate, identified by the first receipt's First and the
// last receipt's Last, with the summed packet count. The caller is
// responsible for passing receipts in stream order; adjacency of
// consecutive aggregates is the reporting HOP's invariant. The
// combined receipt carries the final receipt's AggTrans (the only
// cutting point that survives the merge).
func CombineAggregates(rs ...AggReceipt) (AggReceipt, error) {
	if len(rs) == 0 {
		return AggReceipt{}, fmt.Errorf("receipt: combining zero aggregate receipts")
	}
	out := AggReceipt{
		Path: rs[0].Path,
		Agg:  AggID{First: rs[0].Agg.First, Last: rs[len(rs)-1].Agg.Last},
	}
	for i, r := range rs {
		if r.Path != rs[0].Path {
			return AggReceipt{}, fmt.Errorf("receipt: aggregate receipt %d has PathID %v, want %v", i, r.Path, rs[0].Path)
		}
		out.PktCnt += r.PktCnt
	}
	out.AggTrans = append(out.AggTrans, rs[len(rs)-1].AggTrans...)
	return out, nil
}
