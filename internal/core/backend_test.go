package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// mockBackend is an in-memory StoreBackend recording every call — the
// contract double for the wiring tests (the real implementation is
// segstore.Store, exercised by its own package and the e2e harness).
type mockBackend struct {
	mu      sync.Mutex
	appends []string // "epoch/hop/nSamples/nAggs"
	sealed  []EpochID
	reports map[EpochID][]byte
	failOn  string // method name to fail, "" for none
}

func newMockBackend() *mockBackend {
	return &mockBackend{reports: make(map[EpochID][]byte)}
}

func (m *mockBackend) AppendEpochHOP(epoch EpochID, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failOn == "append" {
		return fmt.Errorf("mock: append refused")
	}
	m.appends = append(m.appends, fmt.Sprintf("%d/%d/%d/%d", epoch, hop, len(samples), len(aggs)))
	return nil
}

func (m *mockBackend) SealEpoch(epoch EpochID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failOn == "seal" {
		return fmt.Errorf("mock: seal refused")
	}
	m.sealed = append(m.sealed, epoch)
	return nil
}

func (m *mockBackend) LastSealed() (EpochID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sealed) == 0 {
		return 0, false
	}
	last := m.sealed[0]
	for _, e := range m.sealed {
		if e > last {
			last = e
		}
	}
	return last, true
}

func (m *mockBackend) HasReport(epoch EpochID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.reports[epoch]
	return ok
}

func (m *mockBackend) PutReport(epoch EpochID, encoded []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failOn == "report" {
		return fmt.Errorf("mock: report refused")
	}
	m.reports[epoch] = append([]byte(nil), encoded...)
	return nil
}

// backendTestReceipts builds a small distinct receipt set per (epoch,
// hop).
func backendTestReceipts(epoch EpochID, hop receipt.HOPID) ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	path := receipt.PathID{
		Key: packet.PathKey{
			Src: packet.Prefix{Addr: [4]byte{10, 0, 0, 0}, Bits: 8},
			Dst: packet.Prefix{Addr: [4]byte{172, 16, 0, 0}, Bits: 16},
		},
		PrevHOP: hop, NextHOP: hop + 1, MaxDiffNS: 100,
	}
	samples := []receipt.SampleReceipt{{
		Path:    path,
		Samples: []receipt.SampleRecord{{PktID: uint64(epoch)*100 + uint64(hop), TimeNS: int64(epoch)}},
	}}
	aggs := []receipt.AggReceipt{{Path: path, Agg: receipt.AggID{First: 1, Last: 2}, PktCnt: 3}}
	return samples, aggs
}

// ingestBackendEpochs replays epochs [0, n) across hops into win.
func ingestBackendEpochs(t *testing.T, win *WindowedStore, n int, hops []receipt.HOPID) {
	t.Helper()
	for e := EpochID(0); e < EpochID(n); e++ {
		for _, hop := range hops {
			samples, aggs := backendTestReceipts(e, hop)
			if err := win.IngestSealed(hop, e, samples, aggs); err != nil {
				t.Fatalf("IngestSealed(%v, %d): %v", hop, e, err)
			}
		}
	}
}

func TestBackendMirrorsSealsAndReports(t *testing.T) {
	hops := []receipt.HOPID{0, 1}
	win, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := newMockBackend()
	win.AttachBackend(b)
	ingestBackendEpochs(t, win, 3, hops)
	win.FinishStream()

	wantAppends := []string{"0/0/1/1", "0/1/1/1", "1/0/1/1", "1/1/1/1", "2/0/1/1", "2/1/1/1"}
	if !reflect.DeepEqual(b.appends, wantAppends) {
		t.Fatalf("appends = %v, want %v", b.appends, wantAppends)
	}
	if !reflect.DeepEqual(b.sealed, []EpochID{0, 1, 2}) {
		t.Fatalf("sealed = %v, want [0 1 2]", b.sealed)
	}

	// Duplicate SealHOP must not re-persist (idempotent on the durable
	// side too).
	if err := win.SealHOP(0, 1); err != nil {
		t.Fatalf("duplicate SealHOP: %v", err)
	}
	if len(b.appends) != len(wantAppends) || len(b.sealed) != 3 {
		t.Fatalf("duplicate SealHOP re-persisted: %d appends, %d seals", len(b.appends), len(b.sealed))
	}

	rolling := NewRollingVerifier(Layout{}, VerifierConfig{}, win, nil, 0)
	reps, err := rolling.VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("%d reports, want 3", len(reps))
	}
	for _, rep := range reps {
		stored, ok := b.reports[rep.Epoch]
		if !ok {
			t.Fatalf("epoch %d report not persisted", rep.Epoch)
		}
		// The backend holds the record; the canonical JSON is rendered
		// from it.
		want, err := EncodeEpochReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !IsReportRecord(stored) {
			t.Fatalf("epoch %d persisted bytes are not a report record", rep.Epoch)
		}
		back, err := DecodeReportRecord(stored)
		if err != nil {
			t.Fatalf("decode persisted epoch %d: %v", rep.Epoch, err)
		}
		if got, err := AppendEpochReport(nil, &back); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("epoch %d persisted record renders apart from the canonical encoding (err %v)", rep.Epoch, err)
		}
	}
}

func TestBackendRecoverySkipsDurableEpochs(t *testing.T) {
	hops := []receipt.HOPID{0, 1}

	// Run 1: three epochs persisted and verified.
	win1, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := newMockBackend()
	win1.AttachBackend(b)
	ingestBackendEpochs(t, win1, 3, hops)
	win1.FinishStream()
	if _, err := NewRollingVerifier(Layout{}, VerifierConfig{}, win1, nil, 0).VerifyReady(); err != nil {
		t.Fatal(err)
	}

	// Run 2 ("restart"): fresh window, same backend, the stream
	// re-executes from epoch 0 plus one new epoch.
	appendsBefore, sealsBefore := len(b.appends), len(b.sealed)
	win2, err := NewWindowedStore(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	win2.AttachBackend(b)
	if wm, ok := win2.DurableWatermark(); !ok || wm != 2 {
		t.Fatalf("watermark = %d, %v; want 2, true", wm, ok)
	}
	ingestBackendEpochs(t, win2, 4, hops)
	win2.FinishStream()

	// Only the new epoch persisted — no double-count of 0..2.
	if got := b.appends[appendsBefore:]; !reflect.DeepEqual(got, []string{"3/0/1/1", "3/1/1/1"}) {
		t.Fatalf("re-execution appended %v, want epoch 3 only", got)
	}
	if got := b.sealed[sealsBefore:]; !reflect.DeepEqual(got, []EpochID{3}) {
		t.Fatalf("re-execution sealed %v, want [3]", got)
	}

	reps, err := NewRollingVerifier(Layout{}, VerifierConfig{}, win2, nil, 0).VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Epoch != 3 {
		t.Fatalf("re-verified %v, want epoch 3 only", reps)
	}
	if got := win2.Recovered(); got != 3 {
		t.Fatalf("Recovered = %d, want 3", got)
	}
	if r := win2.Ready(); len(r) != 0 {
		t.Fatalf("epochs still ready after recovery sweep: %v", r)
	}
}

func TestBackendReverifiesSealedButUnreportedEpoch(t *testing.T) {
	hops := []receipt.HOPID{0}

	// Run 1 "crashes" after sealing 0..2 but before persisting epoch
	// 2's report.
	win1, _ := NewWindowedStore(hops, 2)
	b := newMockBackend()
	win1.AttachBackend(b)
	ingestBackendEpochs(t, win1, 3, hops)
	win1.FinishStream()
	if _, err := NewRollingVerifier(Layout{}, VerifierConfig{}, win1, nil, 0).VerifyReady(); err != nil {
		t.Fatal(err)
	}
	delete(b.reports, 2) // the crash ate the last report

	win2, _ := NewWindowedStore(hops, 2)
	win2.AttachBackend(b)
	ingestBackendEpochs(t, win2, 3, hops)
	win2.FinishStream()
	reps, err := NewRollingVerifier(Layout{}, VerifierConfig{}, win2, nil, 0).VerifyReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Epoch != 2 {
		t.Fatalf("re-verified %v, want exactly the unreported epoch 2", reps)
	}
	if !b.HasReport(2) {
		t.Fatal("epoch 2's report still missing after recovery")
	}
	if got := win2.Recovered(); got != 2 {
		t.Fatalf("Recovered = %d, want 2", got)
	}
}

func TestBackendErrorsPropagate(t *testing.T) {
	hops := []receipt.HOPID{0}
	win, _ := NewWindowedStore(hops, 2)
	b := newMockBackend()
	b.failOn = "append"
	win.AttachBackend(b)
	samples, aggs := backendTestReceipts(0, 0)
	if err := win.IngestSealed(0, 0, samples, aggs); err == nil {
		t.Fatal("append failure did not propagate through IngestSealed")
	}

	b2 := newMockBackend()
	b2.failOn = "report"
	win2, _ := NewWindowedStore(hops, 2)
	win2.AttachBackend(b2)
	ingestBackendEpochs(t, win2, 1, hops)
	win2.FinishStream()
	if _, err := NewRollingVerifier(Layout{}, VerifierConfig{}, win2, nil, 0).VerifyReady(); err == nil {
		t.Fatal("report-persist failure did not propagate through VerifyReady")
	}
}

// DurableWatermark returns the backend's last durably sealed epoch at
// attach time; false with no backend or a fresh one.
func (w *WindowedStore) DurableWatermark() (EpochID, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.backend == nil {
		return 0, false
	}
	return w.durable, w.hasDurable
}
