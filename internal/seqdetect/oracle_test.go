package seqdetect_test

import (
	"bytes"
	"strconv"
	"testing"

	"vpm/internal/core"
	"vpm/internal/seqdetect"
)

// FuzzEngineMatchesReference holds the engine — handles, fed-only
// EndEpoch, trajectories rebuilt from points — to the map-and-sweep
// engine it replaced, kept as test code (ReferenceEngine). data is a
// schedule: its first byte picks a small TrajectoryCap, each later byte
// an operation (high three bits) on one of six detectors (low five):
// create, close the epoch, an empty feed, or a feed of up to fifteen
// evidence items read from the bytes that follow. Every EndEpoch must
// produce the same report bytes (core.AppendSeqVerdicts) from both.
// The checked-in seeds include two crossings in one epoch fed in the
// reverse of creation order, and crossings after long idle stretches.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := seqdetect.Config{Alpha: 0.05, Beta: 0.05, BiasMinRef: 2, TrajectoryCap: 1 + int(data[0]%5)}
		eng, ref := seqdetect.NewEngine(cfg), seqdetect.NewReferenceEngine(cfg)
		feed := eng.NewFeeder()
		// The engine creates; finding is the caller's: a detector is
		// created the first time it is named, at the next position.
		var dets [4]*seqdetect.Detector
		created := uint64(0)
		detector := func(id int, scope seqdetect.Scope, class seqdetect.Class) *seqdetect.Detector {
			if dets[id%4] == nil {
				dets[id%4] = feed.Detector(scope, class, created)
				created++
			}
			return dets[id%4]
		}
		epoch := uint64(0)
		end := func() {
			got, gerr := core.AppendSeqVerdicts(nil, eng.EndEpoch(epoch))
			want, werr := core.AppendSeqVerdicts(nil, ref.EndEpoch(epoch))
			if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) {
				t.Fatalf("epoch %d:\n got %s (%v)\nwant %s (%v)", epoch, got, gerr, want, werr)
			}
			epoch++
		}
		for data = data[1:]; len(data) > 0; {
			op, id := data[0]>>5, int(data[0]&31)%6
			scope, class := fuzzScope(id)
			data = data[1:]
			switch op {
			case 0:
				detector(id, scope, class)
				ref.Observe(scope, class, nil)
			case 1:
				end()
			default:
				n := min(3*int(op-2), len(data))
				items := fuzzItems(data[:n])
				data = data[n:]
				feed.Observe(detector(id, scope, class), items)
				ref.Observe(scope, class, items)
			}
		}
		end()
	})
}

// fuzzScope names the detector of id, one of six: four detectors, one
// of each class, ids 4 and 5 naming those of 0 and 1 again.
func fuzzScope(id int) (seqdetect.Scope, seqdetect.Class) {
	class := seqdetect.Class(1 + id%4)
	sc := seqdetect.Scope{Key: "k" + strconv.Itoa(id%4), Up: uint32(id % 4), Down: uint32(id%4 + 1)}
	if class == seqdetect.ClassBias {
		sc.Domain = "D"
	}
	return sc, class
}

// fuzzItems decodes one evidence item per byte: the kind is b mod 5,
// the value (b >> 3) steps of 20 µs around the delay reference for link
// deltas and steps of 1 µs for domain delays.
func fuzzItems(b []byte) []seqdetect.Evidence {
	items := make([]seqdetect.Evidence, len(b))
	for i, x := range b {
		kind, step := seqdetect.Kind(x%5), float64(x>>3)
		v := step * 1000
		if kind == seqdetect.KindDelta {
			v = seqdetect.DefaultConfig().DelayRefNS + (step-16)*20_000
		}
		items[i] = seqdetect.Evidence{Kind: kind, Value: v}
	}
	return items
}
