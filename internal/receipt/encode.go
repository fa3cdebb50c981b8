package receipt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vpm/internal/packet"
)

// Binary wire encoding of receipts. The format is little-endian with
// fixed-width fields: the point is a compact, deterministic encoding
// whose measured size feeds the paper's bandwidth-overhead accounting
// (§7.1), not a general-purpose serialization.
//
// PathID (28 bytes):
//   src prefix addr[4] bits[1]  dst prefix addr[4] bits[1]
//   prevHOP[4] nextHOP[4] maxDiff[8] pad[2]
// SampleReceipt: kind[1]=1 PathID count[4] (pktID[8] time[8])*
// AggReceipt:    kind[1]=2 PathID first[8] last[8] pktCnt[8]
//                transCount[4] (pktID[8] time[8])*

const (
	kindSample = 1
	kindAgg    = 2

	pathIDLen = 28
	recordLen = 16
)

// ErrCorrupt is returned when decoding malformed receipt bytes.
var ErrCorrupt = errors.New("receipt: corrupt encoding")

func appendPathID(dst []byte, p PathID) []byte {
	var b [pathIDLen]byte
	copy(b[0:4], p.Key.Src.Addr[:])
	b[4] = p.Key.Src.Bits
	copy(b[5:9], p.Key.Dst.Addr[:])
	b[9] = p.Key.Dst.Bits
	binary.LittleEndian.PutUint32(b[10:14], uint32(p.PrevHOP))
	binary.LittleEndian.PutUint32(b[14:18], uint32(p.NextHOP))
	binary.LittleEndian.PutUint64(b[18:26], uint64(p.MaxDiffNS))
	return append(dst, b[:]...)
}

func decodePathID(b []byte) (PathID, error) {
	if len(b) < pathIDLen {
		return PathID{}, ErrCorrupt
	}
	var p PathID
	copy(p.Key.Src.Addr[:], b[0:4])
	p.Key.Src.Bits = b[4]
	copy(p.Key.Dst.Addr[:], b[5:9])
	p.Key.Dst.Bits = b[9]
	if p.Key.Src.Bits > 32 || p.Key.Dst.Bits > 32 {
		return PathID{}, fmt.Errorf("%w: prefix bits out of range", ErrCorrupt)
	}
	p.PrevHOP = HOPID(binary.LittleEndian.Uint32(b[10:14]))
	p.NextHOP = HOPID(binary.LittleEndian.Uint32(b[14:18]))
	p.MaxDiffNS = int64(binary.LittleEndian.Uint64(b[18:26]))
	if b[26] != 0 || b[27] != 0 {
		// The two padding bytes must be zero: the encoding is
		// canonical — one byte string per receipt — so a decoder that
		// silently dropped set padding bits would accept two distinct
		// encodings of the same receipt (found by FuzzDecodeReceipt).
		return PathID{}, fmt.Errorf("%w: non-zero PathID padding", ErrCorrupt)
	}
	return p, nil
}

func appendRecords(dst []byte, rs []SampleRecord) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(rs)))
	dst = append(dst, n[:]...)
	var b [recordLen]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(b[0:8], r.PktID)
		binary.LittleEndian.PutUint64(b[8:16], uint64(r.TimeNS))
		dst = append(dst, b[:]...)
	}
	return dst
}

// AppendBinary appends the receipt's binary encoding to dst.
func (r SampleReceipt) AppendBinary(dst []byte) []byte {
	dst = append(dst, kindSample)
	dst = appendPathID(dst, r.Path)
	return appendRecords(dst, r.Samples)
}

// WireSize returns the encoded size in bytes.
func (r SampleReceipt) WireSize() int {
	return 1 + pathIDLen + 4 + len(r.Samples)*recordLen
}

// AppendBinary appends the receipt's binary encoding to dst.
func (r AggReceipt) AppendBinary(dst []byte) []byte {
	dst = append(dst, kindAgg)
	dst = appendPathID(dst, r.Path)
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:8], r.Agg.First)
	binary.LittleEndian.PutUint64(b[8:16], r.Agg.Last)
	binary.LittleEndian.PutUint64(b[16:24], r.PktCnt)
	dst = append(dst, b[:]...)
	return appendRecords(dst, r.AggTrans)
}

// WireSize returns the encoded size in bytes.
func (r AggReceipt) WireSize() int {
	return 1 + pathIDLen + 24 + 4 + len(r.AggTrans)*recordLen
}

// DecodeReceipts parses nSamples sample receipts and then nAggs
// aggregate receipts — the stream order of a bundle or a segment block
// — from the head of b, and returns them with the bytes after them. A
// first pass checks the layout and counts the records, so nothing is
// allocated for counts the bytes could not hold, and decoding costs at
// most four allocations whatever the counts: a slice and a record slab
// per kind. Every receipt's Samples or AggTrans is cut from its kind's
// slab with cap == len, so an append to one receipt's records cannot
// reach its neighbour's; the slabs are per kind so that a consumer
// keeping only one kind's records does not pin the other's. A kind
// with no receipts, and a receipt with no records, decode as nil.
// Malformed input returns an error wrapping ErrCorrupt that names the
// receipt.
func DecodeReceipts(b []byte, nSamples, nAggs uint32) ([]SampleReceipt, []AggReceipt, []byte, error) {
	// Pass 1: each receipt's kind and length, and the records per kind.
	// Every receipt it accepts spans at least 33 bytes, so the walk is
	// bounded by len(b) whatever the counts claim.
	var sampleRecs, aggRecs uint64
	off := 0
	for i := uint64(0); i < uint64(nSamples)+uint64(nAggs); i++ {
		what, j, kind, head, recs := "sample", i, byte(kindSample), 1+pathIDLen, &sampleRecs
		if i >= uint64(nSamples) {
			what, j, kind, head, recs = "agg", i-uint64(nSamples), kindAgg, 1+pathIDLen+24, &aggRecs
		}
		r := b[off:]
		if len(r) < head+4 {
			return nil, nil, nil, fmt.Errorf("%w: %s %d: truncated", ErrCorrupt, what, j)
		}
		if r[0] != kind {
			return nil, nil, nil, fmt.Errorf("%w: %s %d has kind %d", ErrCorrupt, what, j, r[0])
		}
		n := uint64(binary.LittleEndian.Uint32(r[head : head+4]))
		if uint64(len(r)-head-4) < n*recordLen {
			return nil, nil, nil, fmt.Errorf("%w: %s %d: %d records truncated", ErrCorrupt, what, j, n)
		}
		*recs += n
		off += head + 4 + int(n)*recordLen
	}

	// Pass 2: decode into the slices and the slabs.
	var (
		samples []SampleReceipt
		aggs    []AggReceipt
	)
	rest := b
	if nSamples > 0 {
		samples = make([]SampleReceipt, nSamples)
	}
	slab := recordSlab(sampleRecs)
	for i := range samples {
		s := &samples[i]
		var err error
		if s.Path, err = decodePathID(rest[1:]); err != nil {
			return nil, nil, nil, fmt.Errorf("sample %d: %w", i, err)
		}
		s.Samples, rest = cutRecords(&slab, rest[1+pathIDLen:])
	}
	if nAggs > 0 {
		aggs = make([]AggReceipt, nAggs)
	}
	slab = recordSlab(aggRecs)
	for i := range aggs {
		a := &aggs[i]
		var err error
		if a.Path, err = decodePathID(rest[1:]); err != nil {
			return nil, nil, nil, fmt.Errorf("agg %d: %w", i, err)
		}
		body := rest[1+pathIDLen:]
		a.Agg.First = binary.LittleEndian.Uint64(body[0:8])
		a.Agg.Last = binary.LittleEndian.Uint64(body[8:16])
		a.PktCnt = binary.LittleEndian.Uint64(body[16:24])
		a.AggTrans, rest = cutRecords(&slab, body[24:])
	}
	return samples, aggs, rest, nil
}

// recordSlab allocates n records, none for n == 0.
func recordSlab(n uint64) []SampleRecord {
	if n == 0 {
		return nil
	}
	return make([]SampleRecord, n)
}

// cutRecords decodes the count-prefixed records at the head of b, whose
// length the layout pass checked, into the front of *slab, and returns
// them, with cap == len, and the bytes after them.
func cutRecords(slab *[]SampleRecord, b []byte) ([]SampleRecord, []byte) {
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n == 0 {
		return nil, b
	}
	rs := (*slab)[:n:n]
	*slab = (*slab)[n:]
	for i := range rs {
		rs[i].PktID = binary.LittleEndian.Uint64(b[0:8])
		rs[i].TimeNS = int64(binary.LittleEndian.Uint64(b[8:16]))
		b = b[recordLen:]
	}
	return rs, b
}

// BaseAggReceiptBytes is the size of an aggregate receipt without its
// AggTrans window — the "roughly 20 bytes" of per-path collector state
// the paper's §7.1 memory budget counts (PathID + AggID + PktCnt). We
// expose our exact figure for the overhead experiments.
const BaseAggReceiptBytes = 1 + pathIDLen + 24 + 4

// SampleRecordBytes is the per-sample wire cost (packet digest +
// timestamp), the paper's "〈PktID, Time〉 pairs (4 and 3 bytes)"
// scaled to our 64-bit fields.
const SampleRecordBytes = recordLen

// PathKeyOf is a convenience for building a PathID from components.
func PathKeyOf(src, dst packet.Prefix, prev, next HOPID, maxDiffNS int64) PathID {
	return PathID{
		Key:       packet.PathKey{Src: src, Dst: dst},
		PrevHOP:   prev,
		NextHOP:   next,
		MaxDiffNS: maxDiffNS,
	}
}
