package segstore

// The durable verdict path: a report goes to disk as its record, in a
// checksummed block at the end of its epoch's segment, comes back
// through Open and Report only if it still matches its checksum, and is
// served by /api/v1/verdicts as the canonical JSON of the report it was
// written from. The
// tests here use synthetic reports (package experiments imports this
// one, so the real pipeline drives the query API from httpapi_test.go
// instead) sized like a mesh epoch's, with the characters a verdict's
// Detail really carries.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"vpm/internal/core"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
)

// syntheticReport is a report of the given number of keys, about
// 700 bytes each.
func syntheticReport(epoch uint64, keys int) core.EpochReport {
	rep := core.EpochReport{Epoch: core.EpochID(epoch), Keys: make([]core.EpochKeyReport, keys)}
	for k := range rep.Keys {
		key := packet.PathKey{
			Src: packet.MakePrefix(10, byte(k>>8), byte(k), 0, 24),
			Dst: packet.MakePrefix(172, 16, byte(epoch), 0, 24),
		}
		domain := fmt.Sprintf("AS%d", 64512+k%7)
		rep.Keys[k] = core.EpochKeyReport{
			Key: key,
			Links: []core.LinkVerdict{
				{LinkID: 0, Up: 1, Down: 2, MatchedSamples: 40 + k%9},
				{LinkID: 1, Up: 3, Down: 4, MatchedSamples: 38, MissingDown: 2, Violations: []receipt.Inconsistency{{
					Kind: receipt.MissingDownstream, PktID: uint64(k)*2654435761 + epoch,
					Detail: "HOP3 delivered <pkt> on " + key.String() + " & HOP4 has no record",
				}}},
			},
			Domains: []core.DomainReport{{
				Name: domain, Ingress: 2, Egress: 3,
				Loss:         core.LossReport{In: 1000 + int64(k), Lost: int64(k % 5)},
				DelaySamples: 40,
				DelayEstimates: []quantile.Estimate{
					{Q: 0.5, Point: 1.25e6 + float64(k)/3, Lo: 1.1e6, Hi: 1.4e6 + float64(epoch)/7, N: 40, Exact: true},
					{Q: 0.9, Point: 2.5e6 + float64(k)/7, Lo: 2.2e6, Hi: 2.9e6, N: 40},
				},
			}},
			Blames: []core.Blame{{
				Epoch: core.EpochID(epoch), Evidence: core.EvMissingReceipt, LinkID: 1,
				HOPs: []receipt.HOPID{3, 4}, Domains: []string{domain, "AS64999"}, Count: 1,
				Detail: "missing-downstream on " + key.String(),
			}},
		}
	}
	return rep
}

// fillReports seals epochs [0, len(keys)) and files the record of a
// synthetic report of keys[e] keys for each, as a verifier does,
// returning the records filed and the canonical JSON of each report —
// what Report must give back.
func fillReports(t testing.TB, s *Store, keys []int) (records, blobs [][]byte) {
	t.Helper()
	records, blobs = make([][]byte, len(keys)), make([][]byte, len(keys))
	for e, n := range keys {
		epoch := uint64(e)
		samples, aggs := testReceiptsRaw(epoch, 1)
		if err := s.Append(epoch, 1, samples, aggs); err != nil {
			t.Fatalf("Append(%d): %v", epoch, err)
		}
		if err := s.Seal(epoch); err != nil {
			t.Fatalf("Seal(%d): %v", epoch, err)
		}
		rep := syntheticReport(epoch, n)
		rec, err := core.AppendReportRecord(nil, &rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutReport(epoch, rec); err != nil {
			t.Fatalf("PutReport(%d): %v", epoch, err)
		}
		if blobs[e], err = core.EncodeEpochReport(rep); err != nil {
			t.Fatal(err)
		}
		records[e] = rec
	}
	return records, blobs
}

// flipBit flips the low bit of the record's epoch, a one-byte uvarint
// right after the magic: the record still decodes, and says something
// else.
func flipBit(data []byte) []byte {
	i := len("VPMREP1\n")
	if !core.IsReportRecord(data) || data[i] >= 0x80 {
		panic("no one-byte epoch to flip")
	}
	data[i] ^= 1
	return data
}

// reportBlock returns the name of the file that holds epoch's report
// and the block's bounds in it.
func reportBlock(t testing.TB, s *Store, epoch uint64) (file string, off, end int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.reports[epoch]
	if !ok {
		t.Fatalf("no report on record for epoch %d", epoch)
	}
	return s.entryForLocked(epoch).File, at.off, at.off + blockHeaderLen + int64(at.len)
}

// rotReport flips a bit of epoch's filed record in place (flipBit): the
// block's header still checks out, its payload no longer does.
func rotReport(t testing.TB, s *Store, mfs *MemFS, epoch uint64) {
	t.Helper()
	file, off, end := reportBlock(t, s, epoch)
	mfs.mu.Lock()
	defer mfs.mu.Unlock()
	flipBit(mfs.files[file][off+blockHeaderLen : end])
}

// noReportFiles fails when mfs holds a report file of the layout earlier
// releases wrote.
func noReportFiles(t testing.TB, mfs *MemFS) {
	t.Helper()
	names, _ := mfs.List()
	for _, name := range names {
		if strings.HasPrefix(name, "rep-") {
			t.Fatalf("%s is on disk beside the segments: %v", name, names)
		}
	}
}

func TestReportIsRecordBlockInItsSegment(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs, DiskRetention: 2})
	if err != nil {
		t.Fatal(err)
	}
	records, blobs := fillReports(t, s, []int{3, 0, 5})
	noReportFiles(t, mfs)
	man := s.Manifest()
	tails := make([]int64, len(blobs))
	var onDisk int64
	for e, blob := range blobs {
		got, err := s.Report(uint64(e))
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Report(%d) differs from the canonical JSON of the report filed (err %v)", e, err)
		}
		// The segment is its sealed bytes, then one block: the record.
		file, err := mfs.ReadInto(man[e].File, nil)
		if err != nil {
			t.Fatal(err)
		}
		tail := file[man[e].Bytes:]
		h, payload, err := nextBlock(tail)
		if err != nil || h.epoch != uint64(e) || !bytes.Equal(payload, records[e]) || blockHeaderLen+len(payload) != len(tail) {
			t.Fatalf("epoch %d: the %d bytes past the sealed ones are not one block of the record (epoch %d, %v)", e, len(tail), h.epoch, err)
		}
		tails[e] = int64(len(tail))
		onDisk += tails[e]
	}
	if st := s.StoreStats(); st.ReportBytes != onDisk || st.Reports != 3 {
		t.Fatalf("StoreStats = %+v, want %d report bytes in 3 reports", st, onDisk)
	}
	// Re-putting the same bytes, as re-verification does, adds nothing.
	if err := s.PutReport(1, records[1]); err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats(); st.ReportBytes != onDisk {
		t.Fatalf("ReportBytes = %d after a re-put, want %d", st.ReportBytes, onDisk)
	}
	// Recovery arrives at the same figure from the files alone.
	s2, stats, err := Open("", Options{FS: mfs, DiskRetention: 2})
	if err != nil || stats.Reports != 3 || stats.CorruptReports != 0 || stats.TruncatedBytes != 0 {
		t.Fatalf("reopen: %+v, %v", stats, err)
	}
	if st := s2.StoreStats(); st.ReportBytes != onDisk {
		t.Fatalf("ReportBytes = %d after reopen, want %d", st.ReportBytes, onDisk)
	}
	// Retention takes epoch 0's report and its bytes with its file.
	if err := s2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s2.ReportEpochs(); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("ReportEpochs after retention = %v, want [1 2]", got)
	}
	if st := s2.StoreStats(); st.ReportBytes != onDisk-tails[0] {
		t.Fatalf("ReportBytes = %d after retention, want epoch 0's block gone from %d", st.ReportBytes, onDisk)
	}
	if err := s2.PutReport(2, nil); err == nil {
		t.Fatal("PutReport accepted an empty report")
	}
}

// TestNewestReportBlockWins: a report put again with other bytes is a
// second block, and the newer one is the report, before and after Open.
func TestNewestReportBlockWins(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	fillEpochs(t, s, 1, []receipt.HOPID{0})
	for i, put := range []string{`{"v":1}`, `{"v":2}`, `{"v":1}`} {
		if err := s.PutReport(0, []byte(put)); err != nil {
			t.Fatal(err)
		}
		s2, stats, err := Open("", Options{FS: mfs})
		if err != nil || stats.Reports != 1 || stats.CorruptReports != 0 || stats.TruncatedBytes != 0 {
			t.Fatalf("put %d: reopen: %+v, %v", i, stats, err)
		}
		for name, st := range map[string]*Store{"open": s, "reopened": s2} {
			if got, err := st.Report(0); err != nil || string(got) != put {
				t.Fatalf("put %d: %s store reads %q, %v; want the newest, %q", i, name, got, err, put)
			}
		}
		if blocks := s2.StoreStats().ReportBytes / (blockHeaderLen + int64(len(put))); blocks != int64(i+1) {
			t.Fatalf("put %d: the segment holds %d report blocks, want %d", i, blocks, i+1)
		}
	}
}

// TestOpenTruncatesTornReport: a crash mid-append leaves a torn report
// block at the end of the segment. Open cuts it away and counts its
// bytes, and the epoch has no report; the one before it is untouched.
func TestOpenTruncatesTornReport(t *testing.T) {
	for cut := 1; cut < blockHeaderLen+len(`{"epoch":1}`); cut += 3 {
		mfs := NewMemFS()
		s, _, err := Open("", Options{FS: mfs})
		if err != nil {
			t.Fatal(err)
		}
		fillEpochs(t, s, 2, []receipt.HOPID{0})
		if err := s.PutReport(0, []byte(`{"epoch":0}`)); err != nil {
			t.Fatal(err)
		}
		sealed := s.Manifest()[1]
		f, _ := mfs.OpenAppend(sealed.File)
		f.Write(appendReportBlock(nil, 1, []byte(`{"epoch":1}`))[:cut])
		f.Close()
		s2, stats, err := Open("", Options{FS: mfs})
		if err != nil || stats.TruncatedBytes != int64(cut) || stats.Reports != 1 || stats.CorruptReports != 0 {
			t.Fatalf("cut %d: reopen: %+v, %v", cut, stats, err)
		}
		if s2.HasReport(1) || !s2.HasReport(0) {
			t.Fatalf("cut %d: reports on record %v, want [0]", cut, s2.ReportEpochs())
		}
		if file, _ := mfs.ReadInto(sealed.File, nil); int64(len(file)) != sealed.Bytes {
			t.Fatalf("cut %d: %s is %d bytes after Open, want its sealed %d", cut, sealed.File, len(file), sealed.Bytes)
		}
		// The epoch is verified again, and its report files as usual.
		if err := s2.PutReport(1, []byte(`{"epoch":1}`)); err != nil {
			t.Fatal(err)
		}
		if got, err := s2.Report(1); err != nil || string(got) != `{"epoch":1}` {
			t.Fatalf("cut %d: re-filed report reads %q, %v", cut, got, err)
		}
	}
}

// TestFailedPutReportIsSticky: a report write that fails part-way is
// returned by every later write, so no report is filed behind its torn
// bytes, and the next Open truncates them.
func TestFailedPutReportIsSticky(t *testing.T) {
	mfs := NewMemFS()
	fault := NewFaultFS(mfs, 1<<20)
	s, _, err := Open("", Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	fillEpochs(t, s, 2, []receipt.HOPID{0})
	fault.mu.Lock()
	fault.remaining = 0
	fault.mu.Unlock()
	if err := s.PutReport(0, []byte(`{"epoch":0}`)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("PutReport through a failing write: %v, want the injected fault", err)
	}
	fault.mu.Lock()
	fault.remaining, fault.tripped = 1<<20, false
	fault.mu.Unlock()
	samples, aggs := testReceipts(2, 0)
	for name, call := range map[string]func() error{
		"PutReport": func() error { return s.PutReport(1, []byte(`{"epoch":1}`)) },
		"Append":    func() error { return s.Append(2, 0, samples, aggs) },
		"Seal":      func() error { return s.Seal(2) },
		"Close":     s.Close,
	} {
		if err := call(); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("%s after the failed report: %v, want the injected fault", name, err)
		}
	}
	torn, _ := mfs.ReadInto(segmentName(0, 0), nil)
	sealed := s.Manifest()[0].Bytes
	if int64(len(torn)) <= sealed {
		t.Fatal("the failed write left no torn bytes to recover from")
	}
	s2, stats, err := Open("", Options{FS: mfs})
	if err != nil || stats.TruncatedBytes != int64(len(torn))-sealed || stats.Reports != 0 {
		t.Fatalf("reopen: %+v, %v; want the %d torn bytes truncated", stats, err, int64(len(torn))-sealed)
	}
	if err := s2.PutReport(0, []byte(`{"epoch":0}`)); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Report(0); err != nil || string(got) != `{"epoch":0}` {
		t.Fatalf("Report(0) after recovery: %q, %v", got, err)
	}
}

func TestOpenDropsBitRottedReport(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	records, blobs := fillReports(t, s, []int{2, 2, 2})
	rotReport(t, s, mfs, 1)
	file, off, end := reportBlock(t, s, 1)
	rotted, _ := mfs.ReadInto(file, nil)
	if rep, err := core.DecodeReportRecord(rotted[off+blockHeaderLen : end]); err != nil || rep.Epoch == 1 {
		t.Fatalf("the flipped bit was meant to leave a record that decodes to another report (epoch %d, err %v)", rep.Epoch, err)
	}
	// The open store notices when asked…
	if _, err := s.Report(1); !errors.Is(err, ErrCorruptReport) {
		t.Fatalf("Report(1) over a rotted block: err = %v, want ErrCorruptReport", err)
	}
	// …and recovery refuses to vouch for it: dropped, counted apart
	// from the orphans, named in the boot line.
	s2, stats, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if stats.CorruptReports != 1 || stats.OrphansRemoved != 0 || stats.Reports != 2 {
		t.Fatalf("recovery stats: %+v, want 1 corrupt report, 0 orphans, 2 reports", stats)
	}
	if want := "1 corrupt reports"; !bytes.Contains([]byte(stats.String()), []byte(want)) {
		t.Fatalf("boot line %q does not say %q", stats, want)
	}
	if s2.HasReport(1) {
		t.Fatal("the rotted report is still on record")
	}
	// HasReport false is what sends the epoch through verification
	// again on re-execution; its verdict then files as usual.
	if err := s2.PutReport(1, records[1]); err != nil {
		t.Fatal(err)
	}
	for e, blob := range blobs {
		if got, err := s2.Report(uint64(e)); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Report(%d) after repair: err %v", e, err)
		}
	}
}

// legacyStore seals epochs [0, n) of a store in a MemFS and closes it,
// with no report filed, and returns the MemFS, the record of a synthetic
// report for each epoch and the report's canonical JSON.
func legacyStore(t *testing.T, n int) (mfs *MemFS, records, blobs [][]byte) {
	t.Helper()
	mfs = NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	fillEpochs(t, s, n, []receipt.HOPID{0})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for e := range n {
		rep := syntheticReport(uint64(e), 2)
		rec, err := core.AppendReportRecord(nil, &rep)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := core.EncodeEpochReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		records, blobs = append(records, rec), append(blobs, blob)
	}
	return mfs, records, blobs
}

// writeLegacyReport puts the report file name, holding file, in mfs.
func writeLegacyReport(mfs *MemFS, name string, file []byte) {
	mfs.mu.Lock()
	defer mfs.mu.Unlock()
	mfs.files[name] = file
}

// trailed returns payload followed by its CRC-32C, little-endian: a
// report file's bytes as an earlier release wrote them.
func trailed(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.Checksum(payload, crcTable))
}

// A report file written before reports carried a checksum is bare JSON.
// It cannot be told from a damaged one, so Open's conversion treats it
// as one: not vouched for, dropped, its epoch verified again. An intact
// file beside it is converted: its payload is filed as written, and the
// file goes.
func TestOpenDropsReportWithoutTrailer(t *testing.T) {
	for name, file := range map[string]func(blob []byte) []byte{
		"bare JSON, the format before the trailer": func(blob []byte) []byte { return blob },
		"empty file":              func([]byte) []byte { return nil },
		"a trailer and no report": func([]byte) []byte { return make([]byte, 4) },
	} {
		t.Run(name, func(t *testing.T) {
			mfs, _, blobs := legacyStore(t, 2)
			writeLegacyReport(mfs, "rep-0000000000000000.json", file(blobs[0]))
			writeLegacyReport(mfs, "rep-0000000000000001.json", trailed(blobs[1]))
			s2, stats, err := Open("", Options{FS: mfs})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if stats.CorruptReports != 1 || stats.Reports != 1 || s2.HasReport(0) || !s2.HasReport(1) {
				t.Fatalf("recovery stats: %+v, want epoch 0's report dropped as corrupt and epoch 1's kept", stats)
			}
			noReportFiles(t, mfs)
			if got, err := s2.Report(1); err != nil || !bytes.Equal(got, blobs[1]) {
				t.Fatalf("Report(1) of the converted JSON file: %.80q, %v", got, err)
			}
		})
	}
}

// A read that fails is not a verdict on the file: Open must hand the
// error up and leave the report file where it is. What the failed Open
// converted before it stays converted.
func TestOpenReturnsReportReadError(t *testing.T) {
	mfs, records, blobs := legacyStore(t, 2)
	writeLegacyReport(mfs, "rep-0000000000000000.json", trailed(records[0]))
	writeLegacyReport(mfs, "rep-0000000000000001.json", trailed(records[1]))
	fault := NewFaultFS(mfs, 1<<20)
	fault.FailRead("rep-0000000000000001.json")
	if _, _, err := Open("", Options{FS: fault}); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("Open over an unreadable report: err = %v, want the read error", err)
	}
	if _, err := mfs.ReadInto("rep-0000000000000001.json", nil); err != nil {
		t.Fatalf("Open deleted the report it could not read: %v", err)
	}
	// The same through FaultFS with the file damaged rather than
	// unreadable: dropped and counted, no error.
	fault.FailRead("")
	writeLegacyReport(mfs, "rep-0000000000000001.json", flipBit(trailed(records[1])))
	s2, stats, err := Open("", Options{FS: fault})
	if err != nil || stats.CorruptReports != 1 || stats.Reports != 1 {
		t.Fatalf("Open over a damaged report: %+v, %v", stats, err)
	}
	if got, err := s2.Report(0); err != nil || !bytes.Equal(got, blobs[0]) {
		t.Fatalf("the report converted before the failed read did not survive: %v", err)
	}
	noReportFiles(t, mfs)
}

// verdictsOracle renders the response the way the handler used to:
// json.Encoder over the reports as RawMessages.
func verdictsOracle(t *testing.T, epochs []uint64, reports [][]byte) []byte {
	t.Helper()
	resp := struct {
		Epochs  []uint64          `json:"epochs"`
		Reports []json.RawMessage `json:"reports"`
	}{Epochs: []uint64{}, Reports: []json.RawMessage{}}
	for i, e := range epochs {
		resp.Epochs = append(resp.Epochs, e)
		resp.Reports = append(resp.Reports, reports[i])
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVerdictsResponseByteIdentical(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	api := NewHandler(s, APIConfig{})
	get := func(query string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/verdicts"+query, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s: %d %q", query, rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.Bytes()
	}
	if got, want := get(""), verdictsOracle(t, nil, nil); !bytes.Equal(got, want) {
		t.Fatalf("empty store: %q, want %q", got, want)
	}

	_, blobs := fillReports(t, s, []int{4, 0, 9, 1})
	for _, c := range []struct {
		query  string
		epochs []uint64
	}{
		{"", []uint64{0, 1, 2, 3}},
		{"?from=2&to=2", []uint64{2}},
		{"?from=1", []uint64{1, 2, 3}},
		{"?from=7", nil},
	} {
		var reports [][]byte
		for _, e := range c.epochs {
			reports = append(reports, blobs[e])
		}
		if got, want := get(c.query), verdictsOracle(t, c.epochs, reports); !bytes.Equal(got, want) {
			t.Fatalf("GET %q differs from the json.Encoder rendering:\n got %.200q\nwant %.200q", c.query, got, want)
		}
	}

	// The filtered path shares the frame: narrowed reports, re-encoded.
	const domain = "AS64513"
	var epochs []uint64
	var reports [][]byte
	for e := range blobs {
		rep, err := core.DecodeEpochReport(blobs[e])
		if err != nil {
			t.Fatal(err)
		}
		narrowed := filterReport(&rep, false, packet.PathKey{}, domain)
		if len(narrowed.Keys) == 0 {
			continue
		}
		enc, err := json.Marshal(narrowed)
		if err != nil {
			t.Fatal(err)
		}
		epochs, reports = append(epochs, uint64(e)), append(reports, enc)
	}
	if len(epochs) == 0 || len(epochs) == len(blobs) {
		t.Fatalf("the domain filter kept %d of %d epochs; the case needs some and not all", len(epochs), len(blobs))
	}
	if got, want := get("?domain="+domain), verdictsOracle(t, epochs, reports); !bytes.Equal(got, want) {
		t.Fatalf("filtered response differs from the json.Encoder rendering:\n got %.200q\nwant %.200q", got, want)
	}
}

// A report file a node wrote before records existed holds the canonical
// JSON itself. Every read serves it as a record's rendering would be
// served: verbatim, narrowed by a filter, tallied by /metrics.
func TestPreRecordReportsServeAsWritten(t *testing.T) {
	query := func(s *Store, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		NewHandler(s, APIConfig{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	stores := make([]*Store, 2)
	for i := range stores {
		s, _, err := Open("", Options{FS: NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	records, blobs := fillReports(t, stores[0], []int{3, 5})
	for e, blob := range blobs {
		samples, aggs := testReceiptsRaw(uint64(e), 1)
		if err := stores[1].Append(uint64(e), 1, samples, aggs); err != nil {
			t.Fatal(err)
		}
		if err := stores[1].Seal(uint64(e)); err != nil {
			t.Fatal(err)
		}
		if err := stores[1].PutReport(uint64(e), blob); err != nil {
			t.Fatal(err)
		}
		if got, err := stores[1].Report(uint64(e)); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("Report(%d) of a JSON payload: err %v", e, err)
		}
		if bytes.Equal(records[e], blob) {
			t.Fatal("the record store was meant to hold records")
		}
	}
	for _, path := range []string{"/api/v1/verdicts", "/api/v1/verdicts?domain=AS64513", "/api/v1/verdicts?key=10.0.1.0/24->172.16.1.0/24", "/metrics"} {
		rec, pre := query(stores[0], path), query(stores[1], path)
		if path == "/metrics" {
			// The files' sizes differ; the tallies over them may not.
			size := regexp.MustCompile(`(?m)^vpm_store_report_bytes \d+$`)
			rec, pre = size.ReplaceAll(rec, nil), size.ReplaceAll(pre, nil)
			if !bytes.Contains(rec, []byte("vpm_violations_total 8\n")) {
				t.Fatalf("/metrics counts no violations over 8 key reports:\n%s", rec)
			}
		}
		if !bytes.Equal(rec, pre) {
			t.Fatalf("GET %s: a JSON report file serves\n%.300s\nits record\n%.300s", path, pre, rec)
		}
	}
}

// A report that fails its checksum once earlier reports are on the wire
// must break the response, not shorten it.
func TestVerdictsAbortsMidStreamOnCorruptReport(t *testing.T) {
	mfs := NewMemFS()
	s, _, err := Open("", Options{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	// Reports larger than the server's write buffer, so epoch 0's is on
	// the wire when epoch 1's fails.
	fillReports(t, s, []int{20, 20, 20})
	srv := httptest.NewServer(NewHandler(s, APIConfig{}))
	defer srv.Close()
	srv.Config.ErrorLog = nil

	rotReport(t, s, mfs, 1)
	resp, err := srv.Client().Get(srv.URL + "/api/v1/verdicts")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err == nil {
		t.Fatalf("status %d, body read err %v; want 200 and then a broken body", resp.StatusCode, err)
	}
	if json.Valid(body) {
		t.Fatalf("the aborted response is a well-formed body: %.200q", body)
	}

	// Before the first byte there is still a status line to say it on.
	resp, err = srv.Client().Get(srv.URL + "/api/v1/verdicts?from=1")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d for a query whose first report is corrupt, want 500", resp.StatusCode)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so the
// allocation gates below see the handler's allocations and not a
// recorder's growing body.
type discardWriter struct {
	header http.Header
	code   int
	n      int64
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// diskStore builds a store on a real directory holding one synthetic
// report per entry of keys, closes it, and returns the directory and
// the size of each epoch's one file: its segment, report included.
func diskStore(t testing.TB, keys []int) (string, []int64) {
	t.Helper()
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillReports(t, s, keys)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, len(keys))
	for e := range keys {
		info, err := os.Stat(filepath.Join(dir, segmentName(uint64(e), uint64(e))))
		if err != nil {
			t.Fatal(err)
		}
		sizes[e] = info.Size()
	}
	return dir, sizes
}

// Open reads every file through one buffer: what it allocates follows
// the largest file, not the sum of them.
func TestOpenAllocatesLargestFileNotSum(t *testing.T) {
	keys := []int{300, 280, 310, 290, 305, 270, 320, 300, 295, 315, 285, 300}
	dir, sizes := diskStore(t, keys)
	var largest, sum int64
	for _, n := range sizes {
		largest, sum = max(largest, n), sum+n
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, stats, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil || stats.Reports != len(keys) {
		t.Fatalf("Open: %+v, %v", stats, err)
	}
	defer s.Close()
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Open allocated %d B over %d reports: largest %d B, sum %d B", got, len(keys), largest, sum)
	if got >= 2*largest {
		t.Fatalf("Open allocated %d B, not under twice its largest file (%d B); the files sum to %d B", got, largest, sum)
	}
}

// One unfiltered single-epoch query allocates the same number of
// objects whether the report is a few kilobytes or a megabyte.
func TestVerdictQueryAllocsIndependentOfReportSize(t *testing.T) {
	dir, sizes := diskStore(t, []int{4, 1500})
	if sizes[1] < 100*sizes[0] {
		t.Fatalf("report sizes %v: the case needs two orders of magnitude between them", sizes)
	}
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	api := NewHandler(s, APIConfig{})
	// A GC cycle empties the sync.Pools the handler draws from, and
	// their refill would count as the query's own allocations at
	// whichever size it lands in: no GC while the queries are measured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(epoch int) float64 {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/verdicts?from=%d&to=%d", epoch, epoch), nil)
		w := &discardWriter{header: make(http.Header)}
		n := testing.AllocsPerRun(20, func() {
			w.n = 0
			api.ServeHTTP(w, req)
		})
		if w.code != 0 || w.n < sizes[epoch] {
			t.Fatalf("epoch %d: status %d, %d bytes written for a %d-byte file", epoch, w.code, w.n, sizes[epoch])
		}
		return n
	}
	large := allocs(1)
	small := allocs(0)
	t.Logf("allocs per query: %.0f for %d B, %.0f for %d B", small, sizes[0], large, sizes[1])
	if large != small && !raceEnabled {
		t.Fatalf("a %d-byte report costs %.0f allocations per query, a %d-byte one %.0f", sizes[1], large, sizes[0], small)
	}
}

func BenchmarkOpen(b *testing.B) {
	keys := []int{1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500}
	dir, sizes := diskStore(b, keys)
	var sum int64
	for _, n := range sizes {
		sum += n
	}
	b.SetBytes(sum)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, stats, err := Open(dir, Options{})
		if err != nil || stats.Reports != len(keys) {
			b.Fatalf("Open: %+v, %v", stats, err)
		}
		s.Close()
	}
}

func BenchmarkVerdictsQuery(b *testing.B) {
	dir, sizes := diskStore(b, []int{1500})
	s, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	api := NewHandler(s, APIConfig{})
	req := httptest.NewRequest(http.MethodGet, "/api/v1/verdicts?from=0&to=0", nil)
	w := &discardWriter{header: make(http.Header)}
	b.SetBytes(sizes[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		api.ServeHTTP(w, req)
	}
	if w.code != 0 {
		b.Fatalf("status %d", w.code)
	}
}

// BenchmarkVerdictsQueryFiltered narrows a mesh-sized report to one
// domain: the record is decoded and only what survives is rendered.
func BenchmarkVerdictsQueryFiltered(b *testing.B) {
	dir, sizes := diskStore(b, []int{1500})
	s, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	api := NewHandler(s, APIConfig{})
	req := httptest.NewRequest(http.MethodGet, "/api/v1/verdicts?from=0&to=0&domain=AS64513", nil)
	w := &discardWriter{header: make(http.Header)}
	api.ServeHTTP(w, req)
	if w.code != 0 || w.n == 0 {
		b.Fatalf("status %d, %d bytes", w.code, w.n)
	}
	b.SetBytes(sizes[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		api.ServeHTTP(w, req)
	}
}
