package seqdetect_test

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"vpm/internal/core"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
)

// The feeder world: feederKeys traffic keys, each with one detector of
// every class (slot s judges class s+1), over feederEpochs epochs. Keys
// from feederLate on first carry traffic in epoch 2, so their detectors
// are born there. A liar slot turns its stream to one drop in two from
// the epoch it names on; every other stream is honest.
const (
	feederKeys   = 12
	feederSlots  = 4
	feederLate   = 6
	feederEpochs = 5
)

var feederLiars = map[[2]int]int{
	{3, 0}: 0, {5, 1}: 0, // born in epoch 0, cross in it
	{1, 0}: 2,                        // born in epoch 0, crosses in epoch 2
	{7, 0}: 2, {9, 0}: 2, {10, 1}: 2, // born in epoch 2, cross in it
}

// feederActive returns the keys with traffic in epoch e, in work order.
func feederActive(e int) []int {
	var keys []int
	for k := 0; k < feederKeys; k++ {
		if k < feederLate || e >= 2 {
			keys = append(keys, k)
		}
	}
	return keys
}

// feederItems is the evidence one check of (key, slot) feeds in epoch e:
// keep/drop trials, link deltas, and marker and σ-sample domain delays
// at the delay reference — each detector takes its class's kinds.
func feederItems(e, k, s int) []seqdetect.Evidence {
	rng := stats.NewRNG(uint64(e)<<16 | uint64(k)<<8 | uint64(s))
	drop := 0.0
	if from, ok := feederLiars[[2]int{k, s}]; ok && e >= from {
		drop = 0.5
	}
	ref := seqdetect.DefaultConfig().DelayRefNS
	var items []seqdetect.Evidence
	for i := 0; i < 40; i++ {
		kind := seqdetect.KindKeep
		if rng.Bool(drop) {
			kind = seqdetect.KindDrop
		}
		items = append(items,
			seqdetect.Evidence{Kind: kind},
			seqdetect.Evidence{Kind: seqdetect.KindDelta, Value: ref + 1000*rng.NormFloat64()},
			seqdetect.Evidence{Kind: seqdetect.KindOtherDelta, Value: ref + 1000*rng.NormFloat64()},
			seqdetect.Evidence{Kind: seqdetect.KindMarkerDelta, Value: ref + 1000*rng.NormFloat64()})
	}
	return items
}

// feederCheck is one check: the epoch's key at position pos, and its
// slot.
type feederCheck struct{ pos, key, slot int }

// feederWorld runs the world's epochs. Each epoch, assign splits the
// active keys' positions among the feeders, each feeder's list in the
// order it checks them, and run executes the lists — a feeder checks a
// key's slots in order, creating each detector where it first feeds it,
// at position (key position, slot). It returns each epoch's verdicts as
// report bytes.
func feederWorld(t *testing.T, w int, assign func(keys int) [][]int, run func(lists [][]feederCheck, step func(f int, c feederCheck))) [][]byte {
	t.Helper()
	eng := seqdetect.NewEngine(seqdetect.Config{})
	feeders := make([]*seqdetect.Feeder, w)
	for f := range feeders {
		feeders[f] = eng.NewFeeder()
	}
	var dets [feederKeys][feederSlots]*seqdetect.Detector
	var out [][]byte
	for e := 0; e < feederEpochs; e++ {
		keys := feederActive(e)
		var lists [][]feederCheck
		for _, positions := range assign(len(keys)) {
			var list []feederCheck
			for _, p := range positions {
				for s := 0; s < feederSlots; s++ {
					list = append(list, feederCheck{pos: p, key: keys[p], slot: s})
				}
			}
			lists = append(lists, list)
		}
		run(lists, func(f int, c feederCheck) {
			d := &dets[c.key][c.slot]
			if *d == nil {
				sc := seqdetect.Scope{Key: "k" + strconv.Itoa(c.key), Up: uint32(c.slot), Down: uint32(c.slot + 1)}
				class := seqdetect.Class(c.slot + 1)
				if class == seqdetect.ClassBias {
					sc.Domain = "D"
				}
				*d = feeders[f].Detector(sc, class, uint64(c.pos)<<32|uint64(c.slot))
			}
			feeders[f].Observe(*d, feederItems(e, c.key, c.slot))
		})
		b, err := core.AppendSeqVerdicts(nil, eng.EndEpoch(uint64(e)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestFeedersAreScheduleFree: detectors created and fed through w
// feeders — keys dealt to feeders at random, each feeder checking its
// keys in a random order, the feeders' steps interleaved at random or
// run on goroutines of their own — emit the same verdict bytes, epoch by
// epoch, as one feeder checking the keys in work order. The world has
// detectors that cross in the epoch they were born in, on keys dealt to
// different feeders, beside an older detector crossing in that epoch.
func TestFeedersAreScheduleFree(t *testing.T) {
	serial := feederWorld(t, 1, func(n int) [][]int {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}, func(lists [][]feederCheck, step func(int, feederCheck)) {
		for _, c := range lists[0] {
			step(0, c)
		}
	})
	checkFeederWorld(t, serial)

	rng := stats.NewRNG(57)
	split := 0 // runs where two of epoch 2's newborn crossers were on different feeders
	for trial := 0; trial < 40; trial++ {
		w := 2 + trial%3
		concurrent := trial%4 == 3
		var owner map[int]int // key position → feeder, in epoch 2
		assign := func(n int) [][]int {
			order := make([]int, n)
			for i := range order {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], i
			}
			lists := make([][]int, w)
			for _, p := range order {
				f := rng.Intn(w)
				lists[f] = append(lists[f], p)
			}
			owner = make(map[int]int)
			for f, l := range lists {
				for _, p := range l {
					owner[p] = f
				}
			}
			return lists
		}
		epoch := 0
		got := feederWorld(t, w, assign, func(lists [][]feederCheck, step func(int, feederCheck)) {
			if epoch == 2 && owner[7] != owner[9] {
				split++ // all twelve keys are active: key k sits at position k
			}
			epoch++
			if concurrent {
				var wg sync.WaitGroup
				for f, l := range lists {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, c := range l {
							step(f, c)
						}
					}()
				}
				wg.Wait()
				return
			}
			next, left := make([]int, len(lists)), 0
			for _, l := range lists {
				if len(l) > 0 {
					left++
				}
			}
			for left > 0 {
				f := rng.Intn(len(lists))
				if next[f] == len(lists[f]) {
					continue
				}
				step(f, lists[f][next[f]])
				if next[f]++; next[f] == len(lists[f]) {
					left--
				}
			}
		})
		for e := range serial {
			if !bytes.Equal(got[e], serial[e]) {
				t.Fatalf("trial %d (%d feeders, concurrent %v), epoch %d:\n got %s\nwant %s", trial, w, concurrent, e, got[e], serial[e])
			}
		}
	}
	if split == 0 {
		t.Fatal("no trial put epoch 2's newborn crossers on different feeders")
	}
}

// checkFeederWorld holds the serial run to the world's design: epoch 2
// emits the crossings of keys 1, 7, 9 and 10 — key 1's detector born in
// epoch 0, the others' in epoch 2 — in creation order, so the test
// pins an order a schedule could break.
func checkFeederWorld(t *testing.T, serial [][]byte) {
	t.Helper()
	want := []string{`"key":"k1"`, `"key":"k7"`, `"key":"k9"`, `"key":"k10"`}
	at := 0
	for _, w := range want {
		i := bytes.Index(serial[2][at:], []byte(w))
		if i < 0 {
			t.Fatalf("epoch 2's verdicts %s lack %s after byte %d", serial[2], w, at)
		}
		at += i + len(w)
	}
	if bytes.Count(serial[2], []byte(`"class"`)) != len(want) || bytes.Count(serial[0], []byte(`"class"`)) != 2 {
		t.Fatalf("verdicts by epoch %q: want two in epoch 0 and four in epoch 2", serial)
	}
}
