package core

// The report record is what a verifier files; the canonical JSON is
// rendered from it on read. Rendering a decoded record must give every
// byte AppendEpochReport gives for the report itself, and a record from
// anywhere else — a damaged file, a hostile one — must come back as a
// typed error, never a panic or an allocation its bytes cannot back.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"vpm/internal/seqdetect"
)

// checkRecordRoundTrip holds rep's record, through enc and dec, to the
// canonical encoding: AppendEpochReport(Decode(record)) equals
// AppendEpochReport(rep) byte for byte, and a report whose JSON is
// refused is refused a record the same way.
func checkRecordRoundTrip(t *testing.T, enc *recordEncoder, dec *ReportDecoder, rep *EpochReport) {
	t.Helper()
	const prefix = "kept:"
	want, wantErr := AppendEpochReport(nil, rep)
	rec, err := enc.append([]byte(prefix), rep)
	if wantErr != nil {
		var wantT, gotT *json.UnsupportedValueError
		if !errors.As(wantErr, &wantT) || !errors.As(err, &gotT) || gotT.Str != wantT.Str {
			t.Fatalf("record err = %v, the canonical encoding's is %v", err, wantErr)
		}
		if string(rec) != prefix {
			t.Fatalf("a failed record append left %q in dst", rec)
		}
		return
	}
	if err != nil {
		t.Fatalf("record: %v, the canonical encoding succeeds", err)
	}
	if !bytes.HasPrefix(rec, []byte(prefix)) || !IsReportRecord(rec[len(prefix):]) {
		t.Fatalf("record append lost dst's prefix or the magic: %q", rec[:min(len(rec), 16)])
	}
	back, err := dec.Decode(rec[len(prefix):])
	if err != nil {
		t.Fatalf("decoding a record just written: %v", err)
	}
	got, err := AppendEpochReport(nil, back)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the decoded record renders apart from the report (err %v):\n got %s\nwant %s", err, got, want)
	}
}

// manyKeyReport is probe's first key report repeated to n (key, route)
// reports, each under its own key.
func manyKeyReport(probe EpochReport, n int) EpochReport {
	rep := EpochReport{Epoch: 7, Seq: probe.Seq, Keys: make([]EpochKeyReport, n)}
	for i := range rep.Keys {
		rep.Keys[i] = probe.Keys[0]
		rep.Keys[i].Key.Src.Addr = [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}
	}
	return rep
}

// An encoder that has filed one record files the next without
// allocating: its tables and the buffer are kept.
func TestAppendReportRecordAllocatesNothingPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	rep := manyKeyReport(encodeProbe("10.0.0.0/8->172.16.1.0/24 missing downstream", 1234567.125, 48271, 14), 2048)
	var enc recordEncoder
	buf, err := enc.append(nil, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { buf, err = enc.append(buf[:0], &rep) }); n != 0 || err != nil {
		t.Fatalf("a warm encoder allocates %.1f objects per %d-key record (err %v)", n, len(rep.Keys), err)
	}
	canon, _ := AppendEpochReport(nil, &rep)
	t.Logf("%d keys: record %d B, canonical JSON %d B (%.1f×)", len(rep.Keys), len(buf), len(canon), float64(len(canon))/float64(len(buf)))
}

// A length prefix claiming more elements than the bytes after it can
// hold is refused before anything is allocated for it.
func TestDecodeReportRecordRefusesUnbackedLengths(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	key := append([]byte{2, 0}, make([]byte, 11)...) // one key report: its key defined, route 0
	link := []byte{2, 0, 0, 0}                       // one link: LinkID, Up, Down
	for _, c := range []struct {
		name string
		body []byte // after the magic
	}{
		{"aggregate receipts", []byte{0, 0xfe, 0xff, 0xff, 0xff, 0x0f, 2, 0}},
		{"keys", append([]byte{0, 0}, huge...)},
		{"seq", append([]byte{0, 0, 0}, huge...)},
		{"links", append(append([]byte{0, 0}, key...), huge...)},
		{"violations", append(append(append([]byte{0, 0}, key...), link...), huge...)},
		{"string", append(append(append([]byte{0, 0}, key...), link...), append([]byte{2, 0, 0, 0}, huge...)...)},
	} {
		rec := append(recordMagic[:], c.body...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeReportRecord(rec)
		runtime.ReadMemStats(&after)
		var re *RecordError
		if !errors.As(err, &re) || !errors.Is(err, ErrReportRecord) {
			t.Fatalf("%s: err = %v, want a *RecordError wrapping ErrReportRecord", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Fatalf("%s: refusing a %d-byte record allocated %d B", c.name, len(rec), got)
		}
		t.Logf("%s: %v", c.name, err)
	}
}

func FuzzDecodeReportRecord(f *testing.F) {
	var enc recordEncoder
	for _, c := range append(encodeCorpus, fastPathEdges...) {
		rep := encodeProbe(c.s, c.f, c.n, c.shape)
		if rec, err := enc.append(nil, &rep); err == nil {
			f.Add(rec)
			f.Add(rec[:len(rec)/2])
		}
	}
	f.Add([]byte(`{"Epoch":3,"Keys":null}`))
	f.Add(recordMagic[:])
	f.Fuzz(func(t *testing.T, rec []byte) {
		rep, err := DecodeReportRecord(rec)
		if err != nil {
			var re *RecordError
			if !errors.As(err, &re) || !errors.Is(err, ErrReportRecord) {
				t.Fatalf("err = %v (%T), want a *RecordError wrapping ErrReportRecord", err, err)
			}
			return
		}
		// What decodes is a report: its record round-trips to the same
		// canonical bytes.
		want, wantErr := AppendEpochReport(nil, &rep)
		again, err := AppendReportRecord(nil, &rep)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("re-encoding: %v, rendering: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		back, err := DecodeReportRecord(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded record: %v", err)
		}
		if got, err := AppendEpochReport(nil, &back); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the re-encoded record renders apart (err %v)", err)
		}
	})
}

// The verifier's real records — a lossy link and the sequential arm
// on, so violations, blames and verdicts — decode, and every cut of
// them is refused. They are also FuzzDecodeReportRecord's checked-in
// seeds (testdata/fuzz/FuzzDecodeReportRecord/seq_rolling_epoch_*),
// which must still decode: a layout change that leaves the magic's
// version alone fails here.
func TestDecodeReportRecordRefusesTruncation(t *testing.T) {
	reps, _ := runSeqRolling(t, true, &seqdetect.Config{})
	var enc recordEncoder
	var dec ReportDecoder
	var recs [][]byte
	for i := range reps {
		rec, err := enc.append(nil, &reps[i])
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	seeds, _ := filepath.Glob("testdata/fuzz/FuzzDecodeReportRecord/seq_rolling_epoch_*")
	if len(seeds) == 0 {
		t.Fatal("no checked-in seeds")
	}
	for _, name := range seeds {
		file, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		arg, _ := strings.CutSuffix(strings.TrimPrefix(strings.Split(string(file), "\n")[1], "[]byte("), ")")
		seed, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := dec.Decode([]byte(seed)); err != nil {
			t.Fatalf("%s no longer decodes (regenerate it from runSeqRolling's records): %v", name, err)
		}
	}
	for i, rec := range recs {
		if _, err := dec.Decode(rec); err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(rec); cut += 1 + len(rec)/64 {
			if _, err := dec.Decode(rec[:cut]); !errors.Is(err, ErrReportRecord) {
				t.Fatalf("epoch %d cut to %d of %d bytes: err = %v", reps[i].Epoch, cut, len(rec), err)
			}
		}
	}
}

// BenchmarkAppendReportRecord files a verified mesh epoch's report as
// the verifier does: one encoder and one buffer, kept.
func BenchmarkAppendReportRecord(b *testing.B) {
	rep := meshEpochReport(b)
	var enc recordEncoder
	buf, err := enc.append(nil, &rep)
	if err != nil {
		b.Fatal(err)
	}
	canon, _ := AppendEpochReport(nil, &rep)
	b.ReportMetric(float64(len(canon))/float64(len(buf)), "json/record")
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = enc.append(buf[:0], &rep); err != nil {
			b.Fatal(err)
		}
	}
}
