package receipt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"vpm/internal/packet"
)

// Binary wire encoding of receipts — the one codec every carrier uses:
// dissemination bundles (bus and HTTP frames) and segment-store blocks
// carry these bytes. It is compact and deterministic, and its measured
// size feeds the paper's bandwidth-overhead accounting (§7.1); it is
// not a general-purpose serialization.
//
// PathID:        src prefix addr[4] bits[1]  dst prefix addr[4] bits[1]
//                prevHOP:uvarint nextHOP:uvarint maxDiff:varint
// records:       count:uvarint (pktID[8] dTime:varint)*
// SampleReceipt: kind[1]=1 PathID records
// AggReceipt:    kind[1]=2 PathID first[8] last[8] pktCnt:uvarint records
//
// Fixed-width fields are little-endian; a uvarint is encoding/binary's
// base-128 varint and a varint its zigzag signed form. A record's dTime
// is its TimeNS minus the previous record's in the same receipt (the
// first record's minus 0), in wrapping int64 arithmetic, so every time
// round-trips. Prefix addresses keep their host bits, so fabricated
// receipts round-trip too. The encoding is canonical — one byte string
// per receipt: the decoder refuses non-minimal varints, HOPs above
// 2³²−1 and prefix lengths above 32.

const (
	kindSample = 1
	kindAgg    = 2

	// prefixesLen is the PathID's two raw prefixes.
	prefixesLen = 10
	// minRecordLen is the smallest record: a PktID and a 1-byte dTime.
	minRecordLen = 9
)

// ErrCorrupt is returned when decoding malformed receipt bytes.
var ErrCorrupt = errors.New("receipt: corrupt encoding")

func appendPathID(dst []byte, p PathID) []byte {
	s, d := p.Key.Src, p.Key.Dst
	dst = append(dst, s.Addr[0], s.Addr[1], s.Addr[2], s.Addr[3], s.Bits, d.Addr[0], d.Addr[1], d.Addr[2], d.Addr[3], d.Bits)
	dst = binary.AppendUvarint(dst, uint64(p.PrevHOP))
	dst = binary.AppendUvarint(dst, uint64(p.NextHOP))
	return binary.AppendVarint(dst, p.MaxDiffNS)
}

func appendRecords(dst []byte, rs []SampleRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	var prev int64
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint64(dst, r.PktID)
		dst = binary.AppendVarint(dst, r.TimeNS-prev)
		prev = r.TimeNS
	}
	return dst
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded length of x as a varint.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

func pathIDWireSize(p *PathID) int {
	return prefixesLen + uvarintLen(uint64(p.PrevHOP)) + uvarintLen(uint64(p.NextHOP)) + varintLen(p.MaxDiffNS)
}

func recordsWireSize(rs []SampleRecord) int {
	n := uvarintLen(uint64(len(rs))) + 8*len(rs)
	var prev int64
	for _, r := range rs {
		n += varintLen(r.TimeNS - prev)
		prev = r.TimeNS
	}
	return n
}

// AppendBinary appends the receipt's binary encoding to dst.
func (r SampleReceipt) AppendBinary(dst []byte) []byte {
	dst = append(dst, kindSample)
	dst = appendPathID(dst, r.Path)
	return appendRecords(dst, r.Samples)
}

// AppendBinary appends the receipt's binary encoding to dst.
func (r AggReceipt) AppendBinary(dst []byte) []byte {
	dst = append(dst, kindAgg)
	dst = appendPathID(dst, r.Path)
	dst = binary.LittleEndian.AppendUint64(dst, r.Agg.First)
	dst = binary.LittleEndian.AppendUint64(dst, r.Agg.Last)
	dst = binary.AppendUvarint(dst, r.PktCnt)
	return appendRecords(dst, r.AggTrans)
}

// WireSize returns the encoded size of samples then aggs, each in its
// AppendBinary encoding — the receipt stream of a bundle or a segment
// block. It visits every record, so encoders append instead of sizing
// first.
func WireSize(samples []SampleReceipt, aggs []AggReceipt) int {
	n := 0
	for i := range samples {
		s := &samples[i]
		n += 1 + pathIDWireSize(&s.Path) + recordsWireSize(s.Samples)
	}
	for i := range aggs {
		a := &aggs[i]
		n += 1 + pathIDWireSize(&a.Path) + 16 + uvarintLen(a.PktCnt) + recordsWireSize(a.AggTrans)
	}
	return n
}

// readUvarint decodes the uvarint at the head of b. When b holds 8
// bytes and the varint ends inside them it takes one load and no
// branch on the length — record deltas mix 1- to 4-byte lengths, which
// binary.Uvarint's byte loop turns into mispredicted branches; other
// varints go through binary.Uvarint. The length is ≤ 0 when b holds
// no varint.
func readUvarint(b []byte) (uint64, int) {
	if len(b) >= 8 {
		if v, n := wordUvarint(binary.LittleEndian.Uint64(b)); n <= 8 {
			return v, n
		}
	}
	return binary.Uvarint(b)
}

// wordUvarint decodes the varint at the head of the 8 bytes in x,
// loaded little-endian: its value and length when it ends within them,
// a length of 9 when it does not.
func wordUvarint(x uint64) (uint64, int) {
	n := bits.TrailingZeros64(^x&0x8080808080808080)>>3 + 1
	x &= ^uint64(0) >> ((64 - 8*uint(n)) & 63)
	// Gather the 7-bit groups: pairs, then quads, then all eight.
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4, n
}

// varintEnd returns the length of the varint at the head of the 8
// bytes in x, loaded little-endian, when it ends within them and is
// minimal, else 0.
func varintEnd(x uint64) int {
	n := bits.TrailingZeros64(^x&0x8080808080808080)>>3 + 1
	if n > 8 || n > 1 && byte(x>>(8*n-8)) == 0 {
		return 0
	}
	return n
}

// uvarint decodes the minimal uvarint at the head of b, returning its
// value and length, or a length of 0 when b holds none: truncated,
// longer than 64 bits, or padded with a zero high byte.
func uvarint(b []byte) (uint64, int) {
	v, n := readUvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// unzigzag inverts the zigzag mapping of a varint.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// receiptLen checks the layout of the kind's receipt at the head of b
// — prefix lengths and HOPs in range, every varint minimal, a record
// count the bytes can hold — and returns its encoded length and record
// count. It allocates nothing; the error says what is wrong.
func receiptLen(b []byte, kind byte) (int, uint64, error) {
	if len(b) < 1+prefixesLen {
		return 0, 0, errors.New("truncated")
	}
	if b[0] != kind {
		return 0, 0, fmt.Errorf("kind %d", b[0])
	}
	if b[5] > 32 || b[10] > 32 {
		return 0, 0, errors.New("prefix bits out of range")
	}
	off := 1 + prefixesLen
	for i, field := range [...]string{"previous HOP", "next HOP", "MaxDiff"} {
		v, n := uvarint(b[off:])
		switch {
		case n == 0:
			return 0, 0, fmt.Errorf("bad %s varint", field)
		case i < 2 && v > math.MaxUint32:
			return 0, 0, fmt.Errorf("%s %d out of range", field, v)
		}
		off += n
	}
	if kind == kindAgg {
		if len(b)-off < 16 {
			return 0, 0, errors.New("truncated aggregate ID")
		}
		off += 16
		_, n := uvarint(b[off:])
		if n == 0 {
			return 0, 0, errors.New("bad packet-count varint")
		}
		off += n
	}
	recs, n := uvarint(b[off:])
	if n == 0 {
		return 0, 0, errors.New("bad record-count varint")
	}
	off += n
	if recs > uint64(len(b)-off)/minRecordLen {
		return 0, 0, fmt.Errorf("%d records in %d bytes", recs, len(b)-off)
	}
	for i := uint64(0); i < recs; i++ {
		var n int
		if len(b)-off >= 16 {
			n = varintEnd(binary.LittleEndian.Uint64(b[off+8:]))
		}
		if n == 0 { // near the end of b, long, or malformed
			if len(b)-off < minRecordLen {
				return 0, 0, fmt.Errorf("record %d truncated", i)
			}
			if _, n = uvarint(b[off+8:]); n == 0 {
				return 0, 0, fmt.Errorf("record %d: bad time varint", i)
			}
		}
		off += 8 + n
	}
	return off, recs, nil
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
	// Pass 1: each receipt's layout, and the records per kind. Every
	// receipt it accepts spans at least 15 bytes, so the walk is
	// bounded by len(b) whatever the counts claim.
	var sampleRecs, aggRecs uint64
	off := 0
	for i := uint64(0); i < uint64(nSamples)+uint64(nAggs); i++ {
		what, j, kind, recs := "sample", i, byte(kindSample), &sampleRecs
		if i >= uint64(nSamples) {
			what, j, kind, recs = "agg", i-uint64(nSamples), kindAgg, &aggRecs
		}
		n, k, err := receiptLen(b[off:], kind)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: %s %d: %v", ErrCorrupt, what, j, err)
		}
		*recs += k
		off += n
	}

	// Pass 2: decode the checked bytes into the slices and the slabs.
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
		rest = cutPathID(&s.Path, rest[1:])
		s.Samples, rest = cutRecords(&slab, rest)
	}
	if nAggs > 0 {
		aggs = make([]AggReceipt, nAggs)
	}
	slab = recordSlab(aggRecs)
	for i := range aggs {
		a := &aggs[i]
		rest = cutPathID(&a.Path, rest[1:])
		a.Agg.First = binary.LittleEndian.Uint64(rest[0:8])
		a.Agg.Last = binary.LittleEndian.Uint64(rest[8:16])
		var n int
		a.PktCnt, n = readUvarint(rest[16:])
		a.AggTrans, rest = cutRecords(&slab, rest[16+n:])
	}
	return samples, aggs, rest, nil
}

// cutPathID decodes the PathID at the head of b, whose layout the first
// pass checked, into *p and returns the bytes after it.
func cutPathID(p *PathID, b []byte) []byte {
	p.Key.Src = packet.Prefix{Addr: [4]byte(b[0:4]), Bits: b[4]}
	p.Key.Dst = packet.Prefix{Addr: [4]byte(b[5:9]), Bits: b[9]}
	b = b[prefixesLen:]
	v, n := readUvarint(b)
	p.PrevHOP, b = HOPID(v), b[n:]
	v, n = readUvarint(b)
	p.NextHOP, b = HOPID(v), b[n:]
	v, n = readUvarint(b)
	p.MaxDiffNS = unzigzag(v)
	return b[n:]
}

// recordSlab allocates n records, none for n == 0.
func recordSlab(n uint64) []SampleRecord {
	if n == 0 {
		return nil
	}
	return make([]SampleRecord, n)
}

// cutRecords decodes the count-prefixed records at the head of b, whose
// layout the first pass checked, into the front of *slab, and returns
// them, with cap == len, and the bytes after them.
func cutRecords(slab *[]SampleRecord, b []byte) ([]SampleRecord, []byte) {
	c, n := readUvarint(b)
	b = b[n:]
	if c == 0 {
		return nil, b
	}
	rs := (*slab)[:c:c]
	*slab = (*slab)[c:]
	var t int64
	for i := range rs {
		rs[i].PktID = binary.LittleEndian.Uint64(b)
		d, n := uint64(0), 9
		if len(b) >= 16 {
			d, n = wordUvarint(binary.LittleEndian.Uint64(b[8:]))
		}
		if n > 8 {
			d, n = binary.Uvarint(b[8:])
		}
		t += unzigzag(d)
		rs[i].TimeNS = t
		b = b[8+n:]
	}
	return rs, b
}

// BaseAggReceiptBytes is the size of an aggregate receipt without its
// AggTrans window in the fixed-width reference layout — kind[1],
// PathID[28] (two prefixes, two 4-byte HOPs, an 8-byte MaxDiff, 2
// padding bytes), first[8] last[8] pktCnt[8] and a 4-byte record
// count: the "roughly 20 bytes" of per-path collector state the
// paper's §7.1 memory budget counts (PathID + AggID + PktCnt). The §7.1
// analytic and memory rows use it; the wire encoding above is smaller.
const BaseAggReceiptBytes = 1 + 28 + 24 + 4

// SampleRecordBytes is the per-sample cost in the fixed-width reference
// layout (packet digest + timestamp, 8 bytes each), the paper's
// "〈PktID, Time〉 pairs (4 and 3 bytes)" scaled to our 64-bit fields.
const SampleRecordBytes = 16

// PathKeyOf is a convenience for building a PathID from components.
func PathKeyOf(src, dst packet.Prefix, prev, next HOPID, maxDiffNS int64) PathID {
	return PathID{
		Key:       packet.PathKey{Src: src, Dst: dst},
		PrevHOP:   prev,
		NextHOP:   next,
		MaxDiffNS: maxDiffNS,
	}
}
