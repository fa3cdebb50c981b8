package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vpm/internal/core"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// report assembles epoch index e's canonical report from its fragments
// — what the part file stores for it.
func (o *ShardOutput) report(e int) []byte {
	return o.epochs[e].appendReport(nil)
}

func partKey(i int) packet.PathKey {
	return packet.PathKey{
		Src: packet.MakePrefix(10, byte(i>>16), byte(i>>8), byte(i), 32),
		Dst: packet.MakePrefix(192, 168, byte(i>>8), byte(i), 32),
	}
}

// awkwardReports are hand-built reports that exercise every corner of
// the canonical encoding the fragment split has to reproduce.
func awkwardReports() []core.EpochReport {
	full := core.EpochKeyReport{
		Key:   partKey(1),
		Route: 2,
		Links: []core.LinkVerdict{{
			LinkID: 3, Up: 4, Down: 5, MatchedSamples: 17, MissingDown: 2, MissingUp: 1,
			Violations: []receipt.Inconsistency{
				{Kind: receipt.DelayBound, PktID: 0xdeadbeef, Detail: `Δ=3ms > "MaxDiff" <1ms> & counting`},
				{Kind: receipt.CountMismatch, Detail: "up=7 ≠ down=9 \u2028 línea\ttab\\"},
			},
		}, {LinkID: 4, Up: 5, Down: 6}},
		Domains: []core.DomainReport{
			{Name: "AS<7>&co", Ingress: 4, Egress: 5, DelaySamples: 17,
				DelayEstimates: []quantile.Estimate{{}, {}}},
			{Name: "branch", Ingress: 5, Egress: 6, PartialLoss: true, DelayEstimateErr: `no "matched" samples`},
		},
		Blames: []core.Blame{{
			Epoch: 9, Evidence: core.EvDelayBound, LinkID: 3, HOPs: []receipt.HOPID{4, 5},
			Domains: []string{"AS<7>&co", "é"}, Count: 2, Detail: "first: <&>",
		}},
		Bias: []core.DomainBiasVerdict{{Domain: "AS<7>&co", Report: core.MarkerBiasReport{
			MarkerN: 12, OtherN: 90, MarkerP90MS: 0.1, OtherP90MS: 1e-7, MarkerMeanMS: 1.0 / 3, OtherMeanMS: 2.5e21, Suspicious: true,
		}}},
	}
	return []core.EpochReport{
		{Epoch: 0}, // idle: Keys nil → null
		{Epoch: 1, Keys: []core.EpochKeyReport{full}}, // a single key
		{Epoch: 18446744073709551615, Keys: []core.EpochKeyReport{
			{Key: partKey(0)}, full, {Key: partKey(1), Route: 3}, {Key: partKey(70000)},
		}},
		{Epoch: 3, Keys: []core.EpochKeyReport{}}, // empty but not nil → []
		{Epoch: 4, Keys: []core.EpochKeyReport{full}, Seq: []seqdetect.SeqVerdict{
			{Class: 1, Up: 4, Down: 5, Key: "10.0.0.1/32->192.168.0.1/32", Epoch: 4, Frac: 0.25, N: 31, Stat: 7.5, Alpha: 0.01, Beta: 0.05, Trajectory: []float64{0.5, 7.5}},
		}},
	}
}

// TestFragmentsEqualCanonical: NewShardOutput's fragments, put back
// inside the report frame, are core.EncodeEpochReport's bytes.
func TestFragmentsEqualCanonical(t *testing.T) {
	reports := awkwardReports()
	out, err := NewShardOutput(1, 0, reports)
	if err != nil {
		t.Fatal(err)
	}
	for e := range reports {
		want, err := core.EncodeEpochReport(reports[e])
		if err != nil {
			t.Fatal(err)
		}
		got := out.report(e)
		if !bytes.Equal(got, want) {
			t.Errorf("report %d: fragments assemble to\n%s\ncanonical encoding is\n%s", e, got, want)
		}
		if n := out.epochs[e].reportSize(); n != len(want) {
			t.Errorf("report %d: reportSize %d, encoding has %d bytes", e, n, len(want))
		}
	}
}

// referenceStream is a real multi-epoch report stream: the fleet test
// world run single-process.
func referenceStream(t testing.TB) []core.EpochReport {
	t.Helper()
	w, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := RunReference(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// splitStream deals every key of the stream to one of width parts.
func splitStream(reports []core.EpochReport, width int, owner func(packet.PathKey) int) [][]core.EpochReport {
	parts := make([][]core.EpochReport, width)
	for s := range parts {
		parts[s] = make([]core.EpochReport, len(reports))
		for e := range reports {
			parts[s][e].Epoch = reports[e].Epoch
		}
	}
	for e := range reports {
		for _, kr := range reports[e].Keys {
			s := owner(kr.Key)
			parts[s][e].Keys = append(parts[s][e].Keys, kr)
		}
	}
	return parts
}

// permutations calls fn with every ordering of 0..n-1.
func permutations(n int, fn func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// mergeEpochReports is the struct-level statement of the verdict merge
// — one epoch's per-shard partial reports recombined into the union
// report a single-process verifier would have emitted — and the oracle
// MergeShardOutputs, which does the same ordering on encoded fragments
// without decoding them, is pinned to. All parts must cover the same
// epoch and disjoint (key, route) sets, and none may carry sequential
// verdicts; violations wrap core.ErrBadMerge. Parts may be empty; an
// all-empty merge yields the empty report of an idle epoch.
func mergeEpochReports(parts []core.EpochReport) (core.EpochReport, error) {
	if len(parts) == 0 {
		return core.EpochReport{}, fmt.Errorf("%w: no parts", core.ErrBadMerge)
	}
	out := core.EpochReport{Epoch: parts[0].Epoch}
	n := 0
	for i := range parts {
		if parts[i].Epoch != out.Epoch {
			return core.EpochReport{}, fmt.Errorf("%w: part covers epoch %d, want %d", core.ErrBadMerge, parts[i].Epoch, out.Epoch)
		}
		if len(parts[i].Seq) > 0 {
			return core.EpochReport{}, fmt.Errorf("%w: part for epoch %d carries sequential verdicts", core.ErrBadMerge, out.Epoch)
		}
		n += len(parts[i].Keys)
	}
	if n == 0 {
		// Keep Keys nil, not empty: the canonical encoding of an idle
		// epoch spells null, and the merge must reproduce it.
		return out, nil
	}
	out.Keys = make([]core.EpochKeyReport, 0, n)
	for i := range parts {
		out.Keys = append(out.Keys, parts[i].Keys...)
	}
	sort.Slice(out.Keys, func(i, j int) bool {
		if c := out.Keys[i].Key.Compare(out.Keys[j].Key); c != 0 {
			return c < 0
		}
		return out.Keys[i].Route < out.Keys[j].Route
	})
	for i := 1; i < len(out.Keys); i++ {
		if out.Keys[i].Key == out.Keys[i-1].Key && out.Keys[i].Route == out.Keys[i-1].Route {
			return core.EpochReport{}, fmt.Errorf("%w: key %v route %d reported by two shards", core.ErrBadMerge, out.Keys[i].Key, out.Keys[i].Route)
		}
	}
	return out, nil
}

func TestMergeEpochReportsReordersToCanonical(t *testing.T) {
	// A whole report split across three shards in arbitrary key order.
	k := func(i, route int) core.EpochKeyReport { return core.EpochKeyReport{Key: partKey(i), Route: route} }
	whole := core.EpochReport{Epoch: 7, Keys: []core.EpochKeyReport{k(1, 0), k(1, 1), k(2, 0), k(5, 0)}}
	parts := []core.EpochReport{
		{Epoch: 7, Keys: []core.EpochKeyReport{k(5, 0), k(1, 1)}},
		{Epoch: 7, Keys: []core.EpochKeyReport{k(2, 0), k(1, 0)}},
		{Epoch: 7}, // shard that owned no traffic this epoch
	}
	got, err := mergeEpochReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := core.EncodeEpochReport(got)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := core.EncodeEpochReport(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("merge not canonical:\n got %s\nwant %s", gotB, wantB)
	}
}

func TestMergeEpochReportsEmptyStaysNull(t *testing.T) {
	got, err := mergeEpochReports([]core.EpochReport{{Epoch: 3}, {Epoch: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Keys != nil {
		t.Fatalf("all-empty merge produced non-nil Keys %v — canonical idle encoding is null", got.Keys)
	}
	b, _ := core.EncodeEpochReport(got)
	single, _ := core.EncodeEpochReport(core.EpochReport{Epoch: 3})
	if !bytes.Equal(b, single) {
		t.Fatalf("idle merge encodes %s, single-process idle epoch encodes %s", b, single)
	}
}

func TestMergeEpochReportsRefusals(t *testing.T) {
	dup := []core.EpochKeyReport{{Key: partKey(1), Route: 0}}
	cases := []struct {
		name  string
		parts []core.EpochReport
	}{
		{"no parts", nil},
		{"epoch mismatch", []core.EpochReport{{Epoch: 1}, {Epoch: 2}}},
		{"duplicate key+route", []core.EpochReport{{Epoch: 1, Keys: dup}, {Epoch: 1, Keys: dup}}},
		{"sequential verdicts", []core.EpochReport{
			{Epoch: 1, Seq: []seqdetect.SeqVerdict{{}}},
			{Epoch: 1},
		}},
	}
	for _, tc := range cases {
		if _, err := mergeEpochReports(tc.parts); !errors.Is(err, core.ErrBadMerge) {
			t.Errorf("%s: want ErrBadMerge, got %v", tc.name, err)
		}
	}
}

// TestMergeIsOrderingOverAnyPartition: however the key space is dealt
// to 1–5 shards and in whatever order the parts arrive, the fragment
// merge produces the bytes of the struct-level oracle
// (mergeEpochReports, encoded) and of the unsplit stream.
func TestMergeIsOrderingOverAnyPartition(t *testing.T) {
	stream := referenceStream(t)
	whole, err := EncodeReports(stream)
	if err != nil {
		t.Fatal(err)
	}
	keyed := 0
	for _, rep := range stream {
		keyed += len(rep.Keys)
	}
	if len(stream) < 3 || keyed < 100 {
		t.Fatalf("fixture too small to prove anything: %d epochs, %d key reports", len(stream), keyed)
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 12; trial++ {
		width := 1 + trial%5
		owners := make(map[packet.PathKey]int)
		split := splitStream(stream, width, func(k packet.PathKey) int {
			s, ok := owners[k]
			if !ok {
				s = rng.Intn(width)
				owners[k] = s
			}
			return s
		})
		oracle := make([][]byte, len(stream))
		for e := range stream {
			eparts := make([]core.EpochReport, width)
			for s := range split {
				eparts[s] = split[s][e]
			}
			merged, err := mergeEpochReports(eparts)
			if err != nil {
				t.Fatal(err)
			}
			if oracle[e], err = core.EncodeEpochReport(merged); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(oracle[e], whole[e]) {
				t.Fatalf("trial %d epoch %d: the oracle itself diverges from the unsplit stream", trial, e)
			}
		}
		outs := make([]*ShardOutput, width)
		for s := range split {
			if outs[s], err = NewShardOutput(width, s, split[s]); err != nil {
				t.Fatal(err)
			}
		}
		permutations(width, func(perm []int) {
			parts := make([]*ShardOutput, width)
			for i, s := range perm {
				parts[i] = outs[s]
			}
			got, err := MergeShardOutputs(parts)
			if err != nil {
				t.Fatalf("trial %d order %v: %v", trial, perm, err)
			}
			if len(got) != len(oracle) {
				t.Fatalf("trial %d order %v: merged %d epochs, want %d", trial, perm, len(got), len(oracle))
			}
			for e := range got {
				if !bytes.Equal(got[e], oracle[e]) {
					t.Fatalf("trial %d width %d order %v epoch %d:\n got %s\nwant %s", trial, width, perm, e, got[e], oracle[e])
				}
			}
		})
	}
}

// TestMergeRefusals: every way a set of parts can fail to be one tier's
// output is refused with core.ErrBadMerge.
func TestMergeRefusals(t *testing.T) {
	part := func(shards, shard int, reports ...core.EpochReport) *ShardOutput {
		out, err := NewShardOutput(shards, shard, reports)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	k := func(i, route int) core.EpochKeyReport { return core.EpochKeyReport{Key: partKey(i), Route: route} }
	e0 := core.EpochReport{Epoch: 0, Keys: []core.EpochKeyReport{k(1, 0)}}
	e1 := core.EpochReport{Epoch: 1}
	cases := []struct {
		name  string
		parts []*ShardOutput
	}{
		{"no parts", nil},
		{"incomplete tier", []*ShardOutput{part(2, 0, e0, e1)}},
		{"mixed tier widths", []*ShardOutput{part(2, 0, e0, e1), part(3, 1, e1, e1)}},
		{"duplicate shard index", []*ShardOutput{part(2, 0, e0, e1), part(2, 0, e1, e1)}},
		{"shard index out of range", []*ShardOutput{part(2, 0, e0, e1), part(2, 2, e1, e1)}},
		{"negative shard index", []*ShardOutput{part(2, 0, e0, e1), part(2, -1, e1, e1)}},
		{"unequal epoch counts", []*ShardOutput{part(2, 0, e0, e1), part(2, 1, e0)}},
		{"unequal epoch numbers", []*ShardOutput{part(2, 0, e0, e1), part(2, 1, core.EpochReport{Epoch: 0}, core.EpochReport{Epoch: 2})}},
		{"key+route reported twice", []*ShardOutput{
			part(2, 0, core.EpochReport{Keys: []core.EpochKeyReport{k(1, 0), k(1, 1), k(3, 0)}}),
			part(2, 1, core.EpochReport{Keys: []core.EpochKeyReport{k(2, 0), k(1, 1)}}),
		}},
		{"sequential verdicts", []*ShardOutput{
			part(2, 0, e0),
			part(2, 1, core.EpochReport{Seq: []seqdetect.SeqVerdict{{}}}),
		}},
	}
	for _, tc := range cases {
		if got, err := MergeShardOutputs(tc.parts); !errors.Is(err, core.ErrBadMerge) {
			t.Errorf("%s: want core.ErrBadMerge, got %v (merged %d epochs)", tc.name, err, len(got))
		}
	}
	// The same key on different routes, and different keys on the same
	// route, are not duplicates.
	ok := []*ShardOutput{
		part(2, 1, core.EpochReport{Keys: []core.EpochKeyReport{k(1, 1), k(2, 0)}}),
		part(2, 0, core.EpochReport{Keys: []core.EpochKeyReport{k(1, 0), k(3, 0)}}),
	}
	if _, err := MergeShardOutputs(ok); err != nil {
		t.Errorf("disjoint (key, route) sets refused: %v", err)
	}
}

// TestPartFileBytes: the part file is byte for byte json.Marshal of
// {shard, shards, reports: canonical encodings}, and a part read back
// from it merges exactly like the one in memory.
func TestPartFileBytes(t *testing.T) {
	dir := t.TempDir()
	type partDoc struct {
		Shard   int               `json:"shard"`
		Shards  int               `json:"shards"`
		Reports []json.RawMessage `json:"reports"`
	}
	check := func(name string, o *ShardOutput, reports []core.EpochReport) *ShardOutput {
		t.Helper()
		enc, err := EncodeReports(reports)
		if err != nil {
			t.Fatal(err)
		}
		if enc == nil {
			enc = []json.RawMessage{}
		}
		golden, err := json.Marshal(partDoc{Shard: o.Shard, Shards: o.Shards, Reports: enc})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := o.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, golden) {
			t.Fatalf("%s: part file is\n%s\nwant\n%s", name, onDisk, golden)
		}
		if viaMarshal, err := json.Marshal(o); err != nil || !bytes.Equal(viaMarshal, golden) {
			t.Fatalf("%s: json.Marshal(part) = %s, %v; want the file's bytes", name, viaMarshal, err)
		}
		back, err := ReadShardFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := back.MarshalJSON(); !bytes.Equal(again, golden) {
			t.Fatalf("%s: read → write changed the part:\n%s\nwant\n%s", name, again, golden)
		}
		return back
	}

	// Every encoding corner, including a report with sequential verdicts
	// (the file keeps it; only the merge refuses it) and no reports.
	awkward := awkwardReports()
	out, err := NewShardOutput(4, 3, awkward)
	if err != nil {
		t.Fatal(err)
	}
	check("awkward.json", out, awkward)
	empty, err := NewShardOutput(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("empty.json", empty, nil)

	// A real stream split in two: file → merge ≡ memory → merge.
	stream := referenceStream(t)
	split := splitStream(stream, 2, func(k packet.PathKey) int { return int(k.Src.Addr[3]^k.Dst.Addr[3]) & 1 })
	mem := make([]*ShardOutput, 2)
	disk := make([]*ShardOutput, 2)
	for s := range split {
		if mem[s], err = NewShardOutput(2, s, split[s]); err != nil {
			t.Fatal(err)
		}
		disk[s] = check("part-"+string(rune('0'+s))+".json", mem[s], split[s])
	}
	fromMem, err := MergeShardOutputs(mem)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := MergeShardOutputs(disk)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := EncodeReports(stream)
	if err != nil {
		t.Fatal(err)
	}
	for e := range whole {
		if !bytes.Equal(fromDisk[e], fromMem[e]) || !bytes.Equal(fromMem[e], whole[e]) {
			t.Fatalf("epoch %d: disk merge, memory merge and unsplit stream disagree", e)
		}
	}

	if _, err := ReadShardFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("read a part file that does not exist")
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"shard":0,"shards":1,"reports":[{"Epoch":0,"Keys":[{"Key":7}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(torn); err == nil {
		t.Error("read a part whose key report has no usable sort key")
	}
}

// syntheticReports builds the reports of a 2-shard tier over the given
// number of epochs, with n keys dealt alternately, each key report
// carrying a few link verdicts.
func syntheticReports(n, epochs int) [2][]core.EpochReport {
	reports := [2][]core.EpochReport{make([]core.EpochReport, epochs), make([]core.EpochReport, epochs)}
	for e := 0; e < epochs; e++ {
		for s := range reports {
			reports[s][e].Epoch = core.EpochID(e)
		}
		for i := 0; i < n; i++ {
			kr := core.EpochKeyReport{Key: partKey(i), Links: []core.LinkVerdict{
				{LinkID: 0, Up: 1, Down: 2, MatchedSamples: i}, {LinkID: 1, Up: 3, Down: 4}, {LinkID: 2, Up: 5, Down: 6},
			}, Domains: []core.DomainReport{{Name: "transit", Ingress: 2, Egress: 3, DelayEstimateErr: "no matched samples"}}}
			reports[i&1][e].Keys = append(reports[i&1][e].Keys, kr)
		}
	}
	return reports
}

// syntheticParts encodes syntheticReports' tier.
func syntheticParts(tb testing.TB, n, epochs int) []*ShardOutput {
	tb.Helper()
	reports := syntheticReports(n, epochs)
	parts := make([]*ShardOutput, 2)
	for s := range parts {
		var err error
		if parts[s], err = NewShardOutput(2, s, reports[s]); err != nil {
			tb.Fatal(err)
		}
	}
	return parts
}

// TestShardOutputAllocsFlatInKeys: a part encodes each key report once,
// in place, into a few arena chunks and cuts every fragment slice from
// one slab — fewer than three allocations per epoch at 256 keys and at
// 4096 alike, where a per-key allocation would cost hundreds — and
// each fragment is capped at its length, so appending to one leaves
// its neighbour's bytes unchanged.
func TestShardOutputAllocsFlatInKeys(t *testing.T) {
	const epochs = 6
	for _, n := range []int{256, 4096} {
		reports := syntheticReports(n, epochs)[0]
		perEpoch := testing.AllocsPerRun(10, func() {
			if _, err := NewShardOutput(2, 0, reports); err != nil {
				t.Fatal(err)
			}
		}) / epochs
		if perEpoch >= 3 {
			t.Errorf("%d keys: a part allocates %.1f times per epoch; want a small constant at every key count", n, perEpoch)
		}
	}
	out, err := NewShardOutput(2, 0, syntheticReports(8, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	keys := out.epochs[0].keys
	for i := range keys[:len(keys)-1] {
		next := bytes.Clone(keys[i+1].json)
		_ = append(keys[i].json, `,"tampered":true`...)
		if !bytes.Equal(keys[i+1].json, next) {
			t.Fatalf("appending to fragment %d rewrote fragment %d: %s", i, i+1, keys[i+1].json)
		}
	}
}

// TestMergeAllocsFlatInKeys: the merge allocates its bookkeeping and
// one buffer per epoch — a handful at 256 keys and at 4096 alike (the
// race detector adds one to the larger). A merge that materialised key
// reports would allocate per key.
func TestMergeAllocsFlatInKeys(t *testing.T) {
	allocs := func(n int) float64 {
		parts := syntheticParts(t, n, 1)
		return testing.AllocsPerRun(20, func() {
			if _, err := MergeShardOutputs(parts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256), allocs(4096)
	if small > 8 || large > 8 {
		t.Fatalf("merge allocates %.0f times at 256 keys and %.0f at 4096; want a small constant at both", small, large)
	}
}

func BenchmarkMergeShardOutputs(b *testing.B) {
	const keys, epochs = 4096, 6
	parts := syntheticParts(b, keys, epochs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeShardOutputs(parts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys*epochs), "ns/key-epoch")
}
