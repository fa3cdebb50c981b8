package core

// The canonical encoder is hand-written; json.Marshal is its oracle.
// Every byte must match — the stored verdicts, the fleet fingerprints
// and the bench's check all rest on one encoding — and a float
// json.Marshal refuses must be refused the same way.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"vpm/internal/aggregation"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/trace"
)

// encodeProbe builds a report with every field of every report type
// set from the arguments: s in every string, f in every float, n in
// every integer (cut to the field's width). shape picks nil, empty or
// filled for the slices, and whether the sequential arm reported.
func encodeProbe(s string, f float64, n int64, shape uint8) EpochReport {
	key := packet.PathKey{
		Src: packet.MakePrefix(byte(n), byte(n>>8), 0, 0, int(uint64(n)%33)),
		Dst: packet.MakePrefix(172, 16, byte(n>>16), 0, 24),
	}
	path := receipt.PathID{Key: key, PrevHOP: receipt.HOPID(n), NextHOP: receipt.HOPID(n + 1), MaxDiffNS: n}
	agg := receipt.AggReceipt{Path: path, Agg: receipt.AggID{First: uint64(n), Last: uint64(n) + 1}, PktCnt: uint64(n)}
	withTrans := agg
	withTrans.AggTrans = []receipt.SampleRecord{{PktID: uint64(n), TimeNS: n}, {PktID: 1, TimeNS: -n}}

	rep := EpochReport{Epoch: EpochID(n)}
	switch shape % 3 {
	case 0: // every slice nil
		return rep
	case 1: // every slice empty, not nil
		rep.Keys = []EpochKeyReport{{
			Key: key, Links: []LinkVerdict{{Violations: []receipt.Inconsistency{}}},
			Domains: []DomainReport{{Loss: LossReport{Pairs: []aggregation.Pair{}}, DelayEstimates: []quantile.Estimate{}}},
			Blames:  []Blame{{HOPs: []receipt.HOPID{}, Domains: []string{}}},
			Bias:    []DomainBiasVerdict{},
		}, {}}
		rep.Seq = []seqdetect.SeqVerdict{}
		if shape&4 != 0 {
			rep.Seq = []seqdetect.SeqVerdict{{Trajectory: []float64{}}}
		}
		return rep
	}
	rep.Keys = []EpochKeyReport{{
		Key:   key,
		Route: int(n),
		Links: []LinkVerdict{{
			LinkID: int(n), Up: receipt.HOPID(n), Down: receipt.HOPID(n + 1),
			Violations: []receipt.Inconsistency{
				{Kind: receipt.InconsistencyKind(n), PktID: uint64(n), Detail: s},
				{Kind: receipt.DelayBound, Detail: "plain"},
			},
			MatchedSamples: int(n), MissingDown: int(-n), MissingUp: 3,
		}, {}},
		Domains: []DomainReport{{
			Name: s, Ingress: receipt.HOPID(n), Egress: receipt.HOPID(n >> 3),
			Loss:        LossReport{Pairs: []aggregation.Pair{{A: agg, B: withTrans}}, In: n, Lost: -n, Migrations: int(n)},
			PartialLoss: shape&8 != 0, DelaySamples: int(n),
			DelayEstimates:   []quantile.Estimate{{Q: 0.9, Point: f, Lo: -f, Hi: f * 3, N: int(n), Exact: shape&16 != 0}, {}},
			DelayEstimateErr: s,
		}},
		Blames: []Blame{{
			Epoch: EpochID(n), Evidence: EvidenceClass(n), LinkID: -1,
			HOPs: []receipt.HOPID{1, receipt.HOPID(n)}, Domains: []string{s, "B"}, Count: int(n), Detail: s,
		}},
		Bias: []DomainBiasVerdict{{Domain: s, Report: MarkerBiasReport{
			MarkerN: int(n), OtherN: 2, MarkerP90MS: f, OtherP90MS: f / 3, MarkerMeanMS: -f, OtherMeanMS: 0.25,
			Suspicious: shape&32 != 0,
		}}},
	}}
	if shape&4 != 0 {
		rep.Seq = []seqdetect.SeqVerdict{
			{Class: seqdetect.ClassLoss, Up: uint32(n), Down: 6, Key: s, Epoch: uint64(n), Frac: f, N: uint64(n), Stat: f, Alpha: 0.01, Beta: 0.05,
				Trajectory: []float64{0, f, -1.5}},
			{Class: seqdetect.ClassBias, Domain: s},
		}
	}
	return rep
}

// checkAgainstMarshal holds every exported append function to
// json.Marshal on rep, bytes and error alike.
func checkAgainstMarshal(t *testing.T, rep EpochReport) {
	t.Helper()
	const prefix = "kept:"
	same := func(what string, got []byte, gotErr error, v any) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		if wantErr != nil {
			var wantT, gotT *json.UnsupportedValueError
			if !errors.As(wantErr, &wantT) {
				t.Fatalf("%s: oracle failed with %T, not an unsupported value: %v", what, wantErr, wantErr)
			}
			if !errors.As(gotErr, &gotT) || gotT.Str != wantT.Str {
				t.Fatalf("%s: err = %v, json.Marshal's is %v", what, gotErr, wantErr)
			}
			if string(got) != prefix {
				t.Fatalf("%s: a failed append left %q in dst", what, got)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("%s: err = %v, json.Marshal encodes it", what, gotErr)
		}
		if !bytes.Equal(got, append([]byte(prefix), want...)) {
			t.Fatalf("%s differs from json.Marshal:\n got %s\nwant %s%s", what, got, prefix, want)
		}
	}
	got, err := AppendEpochReport([]byte(prefix), &rep)
	same("AppendEpochReport", got, err, rep)
	for i := range rep.Keys {
		got, err := AppendEpochKeyReport([]byte(prefix), &rep.Keys[i])
		same("AppendEpochKeyReport", got, err, &rep.Keys[i])
	}
	got, err = AppendSeqVerdicts([]byte(prefix), rep.Seq)
	same("AppendSeqVerdicts", got, err, rep.Seq)

	enc, err := EncodeEpochReport(rep)
	if want, wantErr := json.Marshal(rep); !bytes.Equal(enc, want) || (err == nil) != (wantErr == nil) {
		t.Fatalf("EncodeEpochReport = %s, %v; json.Marshal = %s, %v", enc, err, want, wantErr)
	}
	checkRecordRoundTrip(t, new(recordEncoder), new(ReportDecoder), &rep)
}

// encodeCorpus is the seed set: what the encoder has to get right that
// a report of small integers and letters would never show.
var encodeCorpus = []struct {
	s     string
	f     float64
	n     int64
	shape uint8
}{
	{"", 0, 0, 0},                                   // nil slices spell null
	{"", 0, 0, 1},                                   // empty ones spell []
	{"", 0, 0, 7},                                   // an empty trajectory is omitted, an empty Seq too
	{"10.0.0.0/8->172.16.1.0/24", 1.5, 7, 2},        // > is HTML-escaped
	{"a<b & \"c\" \\ d", 100, 12345678901, 14},      // <, &, quote, backslash; armed Seq
	{"line\u2028sep\u2029par", -2.25, -3, 14},       // JSONP separators
	{"bad\xffutf8\xc3", 1e-7, 1, 14},                // invalid UTF-8 becomes U+FFFD; exponent form, unpadded
	{"tab\tnl\nbell\x07del\x7f", 1e21, 1 << 40, 62}, // control bytes; the upper exponent cutoff
	{"é世界😀", 123456789.125, 255, 14},                // valid multi-byte runes pass through
	{"x", 9.999999e-7, math.MaxInt64, 14},           // just under the lower cutoff
	{"x", 0.000001, math.MinInt64, 14},              // on it
	{"x", 5e-324, 33, 14},                           // smallest denormal: e-324 keeps three digits
	{"x", math.MaxFloat64, 32, 14},                  // overflows to Inf in Hi: refused
	{"x", math.NaN(), 1, 2},                         // refused
	{"x", math.Inf(-1), 1, 14},                      // refused
	{"x", math.Copysign(0, -1), 1, 2},               // -0
	{"x", 1.0 / 3, 1, 14},                           // shortest round-trip digits
	{"x", 123456789012345678, 1, 14},                // integral float below 1e21 stays positional
}

// fastPathEdges are FuzzAppendEpochReport's seeds at the edges of the
// encoder's two fast paths: floats written as integers stop short of
// 2⁵³ and at −0, and a run of plain bytes is appended whole only up to
// the first byte that needs an escape, so each escaped byte follows a
// plain prefix.
var fastPathEdges = []struct {
	s     string
	f     float64
	n     int64
	shape uint8
}{
	{"x", math.Copysign(0, -1), 1, 14},
	{"x", 1<<53 - 1, 1, 14},
	{"x", -(1<<53 - 1), 1, 14},
	{"x", 1 << 53, 1, 14},
	{"x", -(1 << 53), 1, 14},
	{"x", 1<<53 + 2, 1, 14},
	{"x", 5e-7, 1, 14},
	{"edge0\"", 2, 1, 14},
	{"edge0\\", 2, 1, 14},
	{"edge0<", 2, 1, 14},
	{"edge0>", 2, 1, 14},
	{"edge0&", 2, 1, 14},
	{"edge0\x1f", 2, 1, 14},
	{"edge0\u2028", 2, 1, 14},
	{"edge0\xfe", 2, 1, 14},
	{"edge0 ~!#$%'()*+,-./09:;=?@AZ[]^_`az{|}", 2, 1, 14}, // every other class of plain byte
}

func TestAppendEpochReportMatchesJSONMarshal(t *testing.T) {
	for _, c := range encodeCorpus {
		checkAgainstMarshal(t, encodeProbe(c.s, c.f, c.n, c.shape))
	}
	// And what the verifier really produces over a lossy link, the
	// sequential arm on.
	reps, _ := runSeqRolling(t, true, &seqdetect.Config{})
	for _, rep := range reps {
		checkAgainstMarshal(t, rep)
	}
	// The verifier files its reports through one encoder whose tables
	// outlive each record, and a store decodes them through one decoder.
	enc, dec := new(recordEncoder), new(ReportDecoder)
	for i := range reps {
		checkRecordRoundTrip(t, enc, dec, &reps[i])
	}
}

func FuzzAppendEpochReport(f *testing.F) {
	for _, c := range append(encodeCorpus, fastPathEdges...) {
		f.Add(c.s, c.f, c.n, c.shape)
	}
	f.Fuzz(func(t *testing.T, s string, v float64, n int64, shape uint8) {
		checkAgainstMarshal(t, encodeProbe(s, v, n, shape))
	})
}

// BenchmarkEncodeEpochReport encodes a mesh-sized report into a reused
// buffer, as persistReport does. Its floats are fractional and its
// strings need escaping, so it runs neither of the encoder's fast
// paths; BenchmarkEncodeMeshEpochReport is what a verifier persists.
func BenchmarkEncodeEpochReport(b *testing.B) {
	probe := encodeProbe("10.0.0.0/8->172.16.1.0/24 missing downstream", 1234567.125, 48271, 14)
	rep := EpochReport{Epoch: 7, Seq: probe.Seq}
	for i := 0; i < 2048; i++ {
		rep.Keys = append(rep.Keys, probe.Keys[0])
	}
	buf, err := AppendEpochReport(nil, &rep)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendEpochReport(buf[:0], &rep); err != nil {
			b.Fatal(err)
		}
	}
}

// meshEpochReport verifies three epochs of 64 keys over an honest
// Clos(8,4) fabric and returns the middle epoch's report with its
// (key, route) reports repeated to 4096, the clos-zipf bench's key
// count: whole-nanosecond bounds, plain domain names.
func meshEpochReport(tb testing.TB) EpochReport {
	tb.Helper()
	keys := netsim.TopoKeys(64)
	topo := netsim.ClosTopology(17, 8, 4, keys)
	const intervalNS, epochs = int64(5e7), 3
	tc := topoTraceConfig(keys, 2000, epochs*intervalNS)
	pkts, err := trace.Generate(tc)
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := NewTopoDeployment(topo, tc.Table(), meshDeployConfig())
	if err != nil {
		tb.Fatal(err)
	}
	win, err := NewWindowedStore(dep.HOPs(), epochs)
	if err != nil {
		tb.Fatal(err)
	}
	driver, err := NewEpochDriver(dep, intervalNS, win.Sink())
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := netsim.NewTopoRunner(topo, tc.Table())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.Run(pkts, driver.Observers()); err != nil {
		tb.Fatal(err)
	}
	driver.Close()
	win.FinishStream()
	rolling := NewRollingVerifier(Layout{}, dep.VerifierConfig(), win, nil, 0.95)
	rolling.SetKeyLayouts(dep.KeyLayouts())
	reps, err := rolling.VerifyReady()
	if err != nil {
		tb.Fatal(err)
	}
	if len(reps) < 2 {
		tb.Fatalf("%d epochs verified", len(reps))
	}
	rep := EpochReport{Epoch: reps[1].Epoch}
	for len(rep.Keys) < 4096 {
		rep.Keys = append(rep.Keys, reps[1].Keys...)
	}
	return rep
}

// BenchmarkEncodeMeshEpochReport encodes a verified mesh epoch's
// report, held first to json.Marshal, into a reused buffer.
func BenchmarkEncodeMeshEpochReport(b *testing.B) {
	rep := meshEpochReport(b)
	want, err := json.Marshal(rep)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := AppendEpochReport(nil, &rep)
	if err != nil || !bytes.Equal(buf, want) {
		b.Fatalf("the mesh report encodes apart from json.Marshal (err %v)", err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendEpochReport(buf[:0], &rep); err != nil {
			b.Fatal(err)
		}
	}
}
