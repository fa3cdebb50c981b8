package core

import (
	"encoding/json"
	"fmt"

	"vpm/internal/receipt"
)

// StoreBackend is the durable persistence hook beneath a
// WindowedStore. RAM remains the evidence window — the backend only
// sees receipts at their seal points, mirroring each (HOP, epoch) to
// stable storage as the HOP commits to it, so a continuous deployment
// can be killed and restarted without losing judged history. The
// production implementation is segstore.Store (wired by cmd/vpm-node);
// the interface lives here so core never imports the storage layer.
//
// Call order per epoch: AppendEpochHOP once per expected HOP (exactly
// when that HOP seals the epoch — its receipt set is final), then
// SealEpoch once when the last HOP seals. The slices handed to
// AppendEpochHOP are immutable — the window's index aliases the same
// records — and the backend may retain them, uncopied, until the
// epoch's report is filed. A backend may write an epoch behind the
// caller, so SealEpoch returning promises nothing; the durability
// point is PutReport (or the backend's own close) returning: by then
// the epoch, and every epoch sealed before it, must survive kill -9.
// Before it, an epoch is discardable. PutReport files the epoch's
// report record (AppendReportRecord; a reader renders the canonical
// JSON from it with DecodeReportRecord and AppendEpochReport) after
// verification and before VerifyReady returns — the slice is the
// verifier's reused encode buffer, valid only during the call — so a
// verdict is on record only once its evidence is durable;
// LastSealed and HasReport drive crash recovery (see AttachBackend)
// and answer for every seal handed over before them.
type StoreBackend interface {
	AppendEpochHOP(epoch EpochID, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error
	SealEpoch(epoch EpochID) error
	LastSealed() (EpochID, bool)
	HasReport(epoch EpochID) bool
	PutReport(epoch EpochID, encoded []byte) error
}

// EncodeEpochReport renders the canonical verdict bytes for one epoch
// report: deterministic JSON (every report type is structs and slices
// — no maps — so encoding is order-stable), byte for byte what
// json.Marshal renders (see AppendEpochReport). The kill-9 e2e harness
// asserts byte identity of these encodings across crash-recovery, and
// the historical query API renders them from the stored records.
func EncodeEpochReport(rep EpochReport) ([]byte, error) {
	return AppendEpochReport(nil, &rep)
}

// DecodeEpochReport parses EncodeEpochReport's output.
func DecodeEpochReport(data []byte) (EpochReport, error) {
	var rep EpochReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("core: decoding epoch report: %w", err)
	}
	return rep, nil
}

// AttachBackend wires a durable backend beneath the window. The
// backend's last durably sealed epoch becomes the recovery watermark:
// epochs at or below it are not re-persisted when the stream is
// re-executed (they are already durable — re-appending would
// double-count), and epochs with a durable verdict report skip
// re-verification entirely (see RollingVerifier.VerifyReady),
// counting as recovered instead.
//
// Attach before ingest starts. Recovery by re-execution relies on the
// deterministic pipeline: the restarted process replays the stream
// from epoch 0, rebuilding the RAM window (whose ±1-epoch evidence
// reach spans the watermark boundary) while the backend filters what
// is already on disk.
func (w *WindowedStore) AttachBackend(b StoreBackend) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.backend = b
	w.durable, w.hasDurable = b.LastSealed()
}

// Recovered returns how many epochs skipped re-verification because a
// durable verdict report already existed.
func (w *WindowedStore) Recovered() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recovered
}

// durableSealLocked reports whether epoch was already durably sealed
// before this process attached — persistence must skip it.
func (w *WindowedStore) durableSealLocked(epoch EpochID) bool {
	return w.hasDurable && epoch <= w.durable
}

// skipRecovered reports whether epoch's verification can be skipped:
// it was durably sealed before attach AND a durable verdict report
// exists. When it can, the epoch is marked verified (the durable
// report stands as its verdict) and counted as recovered.
func (w *WindowedStore) skipRecovered(epoch EpochID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.backend == nil || !w.durableSealLocked(epoch) || !w.backend.HasReport(epoch) {
		return false
	}
	if seg, ok := w.segs[epoch]; ok {
		seg.verified = true
	}
	w.recovered++
	return true
}

// persistReport files rep's record (see record.go) with the backend; a
// no-op without one. The record is built by enc in buf, the caller's
// grow-only scratch, which is returned for the next epoch.
func (w *WindowedStore) persistReport(rep *EpochReport, enc *recordEncoder, buf []byte) ([]byte, error) {
	w.mu.Lock()
	b := w.backend
	w.mu.Unlock()
	if b == nil {
		return buf, nil
	}
	buf, err := enc.append(buf[:0], rep)
	if err != nil {
		return buf, fmt.Errorf("core: encoding epoch %d report: %w", rep.Epoch, err)
	}
	if err := b.PutReport(rep.Epoch, buf); err != nil {
		return buf, fmt.Errorf("core: persisting epoch %d report: %w", rep.Epoch, err)
	}
	return buf, nil
}
