package dissem

import (
	"bytes"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// Randomized bundle round-trip property, fixed seeds: for any bundle,
// Encode → DecodeBundle → Encode is byte-identical.

func randBundle(rng *stats.RNG, epoch uint64) *Bundle {
	randPath := func() receipt.PathID {
		return receipt.PathID{
			Key: packet.PathKey{
				Src: packet.MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
				Dst: packet.MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
			},
			PrevHOP:   receipt.HOPID(rng.Uint32()),
			NextHOP:   receipt.HOPID(rng.Uint32()),
			MaxDiffNS: int64(rng.Uint64()),
		}
	}
	b := &Bundle{
		Origin: receipt.HOPID(rng.Uint32()),
		Seq:    rng.Uint64(),
		Epoch:  epoch,
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		sr := receipt.SampleReceipt{Path: randPath()}
		for j, m := 0, rng.Intn(10); j < m; j++ {
			sr.Samples = append(sr.Samples, receipt.SampleRecord{PktID: rng.Uint64(), TimeNS: int64(rng.Uint64())})
		}
		b.Samples = append(b.Samples, sr)
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		ar := receipt.AggReceipt{
			Path:   randPath(),
			Agg:    receipt.AggID{First: rng.Uint64(), Last: rng.Uint64()},
			PktCnt: rng.Uint64(),
		}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			ar.AggTrans = append(ar.AggTrans, receipt.SampleRecord{PktID: rng.Uint64(), TimeNS: int64(rng.Uint64())})
		}
		b.Aggs = append(b.Aggs, ar)
	}
	return b
}

// TestBundleRoundTripProperty: 500 random epoch-tagged bundles
// round-trip byte-identically through the codec.
func TestBundleRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0xabc1)
	for i := 0; i < 500; i++ {
		b := randBundle(rng, rng.Uint64())
		enc := b.Encode()
		got, err := DecodeBundle(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode failed: %v", i, err)
		}
		re := got.Encode()
		if !bytes.Equal(re, enc) {
			t.Fatalf("iteration %d: encode→decode→encode not byte-identical", i)
		}
	}
}
