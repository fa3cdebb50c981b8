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

func decodeRecords(b []byte) ([]SampleRecord, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if uint64(len(b)) < uint64(n)*recordLen {
		return nil, nil, ErrCorrupt
	}
	var rs []SampleRecord
	if n > 0 {
		rs = make([]SampleRecord, n)
		for i := range rs {
			rs[i].PktID = binary.LittleEndian.Uint64(b[0:8])
			rs[i].TimeNS = int64(binary.LittleEndian.Uint64(b[8:16]))
			b = b[recordLen:]
		}
	}
	return rs, b, nil
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

// Decode parses one receipt from b, returning the receipt (exactly one
// of the two pointers is non-nil), the remaining bytes, and an error.
// Malformed input returns ErrCorrupt (match with errors.Is).
func Decode(b []byte) (*SampleReceipt, *AggReceipt, []byte, error) {
	if len(b) < 1 {
		return nil, nil, nil, ErrCorrupt
	}
	kind := b[0]
	b = b[1:]
	path, err := decodePathID(b)
	if err != nil {
		return nil, nil, nil, err
	}
	b = b[pathIDLen:]
	switch kind {
	case kindSample:
		samples, rest, err := decodeRecords(b)
		if err != nil {
			return nil, nil, nil, err
		}
		return &SampleReceipt{Path: path, Samples: samples}, nil, rest, nil
	case kindAgg:
		if len(b) < 24 {
			return nil, nil, nil, ErrCorrupt
		}
		r := AggReceipt{Path: path}
		r.Agg.First = binary.LittleEndian.Uint64(b[0:8])
		r.Agg.Last = binary.LittleEndian.Uint64(b[8:16])
		r.PktCnt = binary.LittleEndian.Uint64(b[16:24])
		trans, rest, err := decodeRecords(b[24:])
		if err != nil {
			return nil, nil, nil, err
		}
		r.AggTrans = trans
		return nil, &r, rest, nil
	default:
		return nil, nil, nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
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
