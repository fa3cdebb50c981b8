package receipt

import (
	"bytes"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/stats"
)

// Randomized round-trip properties with fixed seeds: for any receipt
// the wire codec can produce, encode → decode → encode is
// byte-identical (the encoding is canonical and the decoder is its
// exact inverse), and decode consumes exactly the encoded bytes even
// when receipts are concatenated into a stream.

// randPathID draws a random-but-valid PathID (canonical prefixes).
func randPathID(rng *stats.RNG) PathID {
	return PathID{
		Key: packet.PathKey{
			Src: packet.MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
			Dst: packet.MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
		},
		PrevHOP:   HOPID(rng.Uint32()),
		NextHOP:   HOPID(rng.Uint32()),
		MaxDiffNS: int64(rng.Uint64()),
	}
}

func randRecords(rng *stats.RNG, n int) []SampleRecord {
	if n == 0 {
		return nil
	}
	out := make([]SampleRecord, n)
	for i := range out {
		out[i] = SampleRecord{PktID: rng.Uint64(), TimeNS: int64(rng.Uint64())}
	}
	return out
}

func randSampleReceipt(rng *stats.RNG) SampleReceipt {
	return SampleReceipt{Path: randPathID(rng), Samples: randRecords(rng, rng.Intn(20))}
}

func randAggReceipt(rng *stats.RNG) AggReceipt {
	return AggReceipt{
		Path:     randPathID(rng),
		Agg:      AggID{First: rng.Uint64(), Last: rng.Uint64()},
		PktCnt:   rng.Uint64(),
		AggTrans: randRecords(rng, rng.Intn(8)),
	}
}

// TestReceiptRoundTripProperty: 2000 random receipts of both kinds,
// fixed seed, byte-identical re-encoding and exact stream consumption.
func TestReceiptRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0xfeed)
	for i := 0; i < 2000; i++ {
		var enc []byte
		if rng.Bool(0.5) {
			enc = randSampleReceipt(rng).AppendBinary(nil)
		} else {
			enc = randAggReceipt(rng).AppendBinary(nil)
		}
		s, a, rest, err := Decode(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode of a valid encoding failed: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("iteration %d: %d bytes left over", i, len(rest))
		}
		var re []byte
		if s != nil {
			re = s.AppendBinary(nil)
		} else {
			re = a.AppendBinary(nil)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("iteration %d: encode→decode→encode not byte-identical:\n in: %x\nout: %x", i, enc, re)
		}
	}
}

// TestReceiptStreamRoundTripProperty: concatenated receipt streams
// decode receipt-by-receipt with exact byte accounting, and the
// re-encoded stream matches the original.
func TestReceiptStreamRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0xbeef)
	for iter := 0; iter < 100; iter++ {
		var stream []byte
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			if rng.Bool(0.5) {
				stream = randSampleReceipt(rng).AppendBinary(stream)
			} else {
				stream = randAggReceipt(rng).AppendBinary(stream)
			}
		}
		var re []byte
		rest := stream
		decoded := 0
		for len(rest) > 0 {
			s, a, r, err := Decode(rest)
			if err != nil {
				t.Fatalf("iter %d: stream decode failed at receipt %d: %v", iter, decoded, err)
			}
			if s != nil {
				re = s.AppendBinary(re)
			} else {
				re = a.AppendBinary(re)
			}
			rest = r
			decoded++
		}
		if decoded != n {
			t.Fatalf("iter %d: decoded %d receipts, want %d", iter, decoded, n)
		}
		if !bytes.Equal(re, stream) {
			t.Fatalf("iter %d: re-encoded stream differs", iter)
		}
	}
}
