package receipt

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Decode parses one receipt from b, returning the receipt (exactly one
// of the two pointers is non-nil), the remaining bytes, and an error.
// Malformed input returns ErrCorrupt (match with errors.Is).
func Decode(b []byte) (*SampleReceipt, *AggReceipt, []byte, error) {
	if len(b) < 1 {
		return nil, nil, nil, ErrCorrupt
	}
	switch b[0] {
	case kindSample:
		s, _, rest, err := DecodeReceipts(b, 1, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		return &s[0], nil, rest, nil
	case kindAgg:
		_, a, rest, err := DecodeReceipts(b, 0, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		return nil, &a[0], rest, nil
	default:
		return nil, nil, nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, b[0])
	}
}

// TestDecodeRefusesMalformed: every way the compact layout can be
// malformed returns ErrCorrupt, and no receipts, without a panic — the
// varints, the HOP and prefix ranges, a record count the bytes cannot
// hold, cuts inside a record, and bytes left over inside a stream. Each
// row edits one valid encoding.
func TestDecodeRefusesMalformed(t *testing.T) {
	// sample: kind[0] prefixes[1:11] prev[11] next[12] maxDiff[13:17]
	// count[17], then PktID[8] and a 3-byte delta per record;
	// agg: the same PathID, first[17:25] last[25:33] pktCnt[33:35]
	// count[35] PktID[36:44] delta[44].
	sample := fuzzSampleReceipt().AppendBinary(nil)
	agg := fuzzAggReceipt().AppendBinary(nil)
	if len(sample) != 40 || sample[17] != 2 || len(agg) != 45 || agg[33] != 0xe8 {
		t.Fatalf("layout moved: sample %x, agg %x", sample, agg)
	}
	splice := func(b []byte, at, drop int, ins ...byte) []byte {
		out := append(append([]byte{}, b[:at]...), ins...)
		return append(out, b[at+drop:]...)
	}
	// pad re-encodes the varint whose last byte is b[i] one byte longer,
	// with a zero high byte: the same value, not minimal.
	pad := func(b []byte, i int) []byte { return splice(b, i, 1, 0x80|b[i], 0) }
	cases := []struct {
		name   string
		data   []byte
		nS, nA uint32
	}{
		{"non-minimal previous HOP", pad(sample, 11), 1, 0},
		{"non-minimal next HOP", pad(sample, 12), 1, 0},
		{"non-minimal MaxDiff", pad(sample, 16), 1, 0},
		{"non-minimal record count", pad(sample, 17), 1, 0},
		{"non-minimal time delta", pad(sample, 28), 1, 0},
		{"non-minimal packet count", pad(agg, 34), 0, 1},
		{"MaxDiff past 64 bits", splice(sample, 13, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), 1, 0},
		{"previous HOP of 2³²", splice(sample, 11, 1, 0x80, 0x80, 0x80, 0x80, 0x10), 1, 0},
		{"next HOP of 2³⁵−1", splice(sample, 12, 1, 0xff, 0xff, 0xff, 0xff, 0x7f), 1, 0},
		{"source prefix bits above 32", splice(sample, 5, 1, 33), 1, 0},
		{"destination prefix bits above 32", splice(sample, 10, 1, 33), 1, 0},
		{"count beyond the bytes", splice(sample, 17, 1, 3), 1, 0},
		{"count of 2⁶⁴−1", splice(sample, 17, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), 1, 0},
		{"truncated delta", splice(sample, 39, 1, 0x80), 1, 0},
		{"record cut after its PktID", sample[:37], 1, 0},
		{"truncated aggregate ID", agg[:27], 0, 1},
		{"wrong kind", splice(sample, 0, 1, kindAgg), 1, 0},
		// A count one short leaves a record's bytes behind, which the
		// stream then reads as the next receipt.
		{"trailing bytes after the counted records", splice(sample, 17, 1, 1), 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, a, rest, err := DecodeReceipts(tc.data, tc.nS, tc.nA)
			if !errors.Is(err, ErrCorrupt) || s != nil || a != nil || rest != nil {
				t.Fatalf("%x: got %v (%d samples, %d aggs), want ErrCorrupt", tc.data, err, len(s), len(a))
			}
		})
	}
}

// TestAdversarialTimesRoundTrip: record times at the ends of int64, and
// running backwards or standing still, round-trip exactly — the deltas
// wrap, and the zigzag varint takes any int64 — and WireSize predicts
// every length.
func TestAdversarialTimesRoundTrip(t *testing.T) {
	for _, times := range [][]int64{
		{math.MinInt64, math.MaxInt64, math.MinInt64},
		{math.MaxInt64, math.MinInt64, 0, math.MaxInt64},
		{9e18, 5e18, 1e18, 0, -1e18, -9e18},
		{42, 42, 42, 42},
		{0, 0},
		{-1},
	} {
		recs := make([]SampleRecord, len(times))
		for i, tm := range times {
			recs[i] = SampleRecord{PktID: uint64(i) * 0x9e3779b97f4a7c15, TimeNS: tm}
		}
		path := fuzzSampleReceipt().Path
		path.PrevHOP, path.NextHOP, path.MaxDiffNS = math.MaxUint32, 0, math.MinInt64
		sr := SampleReceipt{Path: path, Samples: recs}
		ar := AggReceipt{Path: path, Agg: AggID{First: math.MaxUint64, Last: 1}, PktCnt: math.MaxUint64, AggTrans: recs}
		stream := ar.AppendBinary(sr.AppendBinary(nil))
		if n := WireSize([]SampleReceipt{sr}, []AggReceipt{ar}); len(stream) != n {
			t.Fatalf("%v: encoded %d bytes, WireSize says %d", times, len(stream), n)
		}
		s, a, rest, err := DecodeReceipts(stream, 1, 1)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: decode: %v, %d bytes left", times, err, len(rest))
		}
		if !reflect.DeepEqual(s[0], sr) || !reflect.DeepEqual(a[0], ar) {
			t.Fatalf("%v: round trip gave %+v / %+v", times, s[0], a[0])
		}
	}
}
