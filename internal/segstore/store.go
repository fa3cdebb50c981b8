package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"vpm/internal/receipt"
)

// Typed failure modes. Callers branch on these: the daemon refuses to
// boot on integrity errors (rather than starting with silently empty
// history), while the ingest path treats ErrEpochSealed as the
// no-double-count guard during recovery-by-reexecution.
var (
	// ErrEpochSealed reports an append to an epoch the manifest
	// already committed — accepting it would double-count receipts
	// that are already durable.
	ErrEpochSealed = errors.New("segstore: epoch already sealed")
	// ErrSegmentIntegrity reports a sealed segment that fails
	// recovery validation (missing, short, or failing its checksum).
	ErrSegmentIntegrity = errors.New("segstore: sealed segment fails integrity check")
	// ErrNotSealed reports a verdict-report operation against an
	// epoch that is not durably sealed — a report must never outlive
	// the evidence it judges.
	ErrNotSealed = errors.New("segstore: epoch not sealed")
	// ErrCorruptReport reports a verdict-report file that is shorter
	// than its framing or fails its checksum.
	ErrCorruptReport = errors.New("segstore: verdict report fails integrity check")
	// ErrBadOptions reports Options that Open refuses before it touches
	// the directory: a negative DiskRetention.
	ErrBadOptions = errors.New("segstore: invalid options")
)

// Options parameterizes a Store.
type Options struct {
	// FS overrides the filesystem (tests use MemFS/FaultFS). Nil
	// means a DirFS over the Open directory.
	FS FS
	// DiskRetention bounds how many sealed epochs stay on disk; 0
	// keeps everything, and Open refuses a negative value. Compaction drops segments whose newest epoch
	// has fallen more than DiskRetention behind the last sealed one.
	DiskRetention int
	// CompactFanIn is how many adjacent small segments trigger a
	// size-tiered merge (default 8; <0 disables merging).
	CompactFanIn int
	// CompactMaxBytes caps the segments eligible for merging — files
	// at or above this size are already their tier's output (default
	// 4 MiB).
	CompactMaxBytes int64
	// AutoCompact runs a retention-and-merge pass after every Seal,
	// the continuous-deployment mode. Off, nothing compacts the store.
	AutoCompact bool
}

// normalize fills defaulted options.
func (o Options) normalize() Options {
	if o.CompactFanIn == 0 {
		o.CompactFanIn = 8
	}
	if o.CompactMaxBytes == 0 {
		o.CompactMaxBytes = 4 << 20
	}
	return o
}

// RecoveryStats reports what Open found and did — the daemon logs it
// at boot, and the kill-9 e2e harness asserts over it.
type RecoveryStats struct {
	// SealedEpochs and HasSealed/LastSealed describe the durable
	// world recovered from the manifest.
	SealedEpochs int    `json:"sealed_epochs"`
	HasSealed    bool   `json:"has_sealed"`
	LastSealed   uint64 `json:"last_sealed"`
	// Reports counts the persisted per-epoch verdict reports.
	Reports int `json:"reports"`
	// PartialSegments counts unsealed segments dropped (the epoch in
	// flight when the process died); PartialBlocksDropped counts the
	// intact blocks inside them and TornBytes the garbage after the
	// tear point.
	PartialSegments      int   `json:"partial_segments"`
	PartialBlocksDropped int   `json:"partial_blocks_dropped"`
	TornBytes            int64 `json:"torn_bytes"`
	// TruncatedBytes counts bytes cut from *sealed* segments that had
	// grown past their committed size (an append torn mid-crash after
	// the manifest commit).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// OrphansRemoved counts stale temp files, and reports of epochs
	// that never sealed, garbage-collected.
	OrphansRemoved int `json:"orphans_removed"`
	// CorruptReports counts reports of sealed epochs dropped because
	// they failed their checksum (bit rot, or a file from before
	// reports carried one). Their epochs have no verdict on record and
	// are verified again when the stream is re-executed.
	CorruptReports int `json:"corrupt_reports"`
}

// String renders the one-line boot summary.
func (s RecoveryStats) String() string {
	last := "none"
	if s.HasSealed {
		last = fmt.Sprintf("%d", s.LastSealed)
	}
	return fmt.Sprintf("recovered %d sealed epochs (last sealed epoch %s, %d reports); dropped %d partial segments (%d blocks, %d torn bytes), %d orphans, %d corrupt reports",
		s.SealedEpochs, last, s.Reports, s.PartialSegments, s.PartialBlocksDropped, s.TornBytes, s.OrphansRemoved, s.CorruptReports)
}

// activeSegment is one open (unsealed) epoch's append state.
type activeSegment struct {
	file    File
	name    string
	bytes   int64
	blocks  int
	samples int
	aggs    int
	crc     uint32 // running CRC-32C over the whole file
}

// Store is the durable epoch-segment store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	fsys    FS
	opts    Options
	entries []SegmentInfo // committed manifest, sorted by FromEpoch
	active  map[uint64]*activeSegment
	// reports maps each epoch with a durable report to its file's size;
	// reportBytes is their sum.
	reports     map[uint64]int64
	reportBytes int64
	buf         []byte // grow-only block-encode buffer
}

// Open opens (or initializes) the store in dir, running crash
// recovery: the manifest's world is validated segment by segment, torn
// tails are truncated, unsealed partial segments and stale temp files
// are removed, and every report is held to its checksum. Every file is
// read through one buffer that grows to the largest of them. Returns
// the store and what recovery found. Integrity failures (a corrupt
// manifest, a sealed segment that cannot be read back) return typed
// errors — ErrCorruptManifest, ErrSegmentIntegrity; match with
// errors.Is — and no store, so the caller decides whether to refuse
// service or rebuild. A sealed segment in another format version
// returns ErrSegmentVersion before any file is changed. An unsealed
// one is dropped like any partial segment: its epoch was never
// committed. A report that fails its checksum is not fatal:
// the evidence is intact, so the file is dropped and the epoch is
// verified again. A report that cannot be read at all is an error —
// deleting a verdict over a transient EIO would be. A negative
// DiskRetention returns ErrBadOptions before dir is created or read.
func Open(dir string, opts Options) (*Store, RecoveryStats, error) {
	opts = opts.normalize()
	var stats RecoveryStats
	if opts.DiskRetention < 0 {
		return nil, stats, fmt.Errorf("%w: DiskRetention %d is negative", ErrBadOptions, opts.DiskRetention)
	}
	fsys := opts.FS
	if fsys == nil {
		dfs, err := NewDirFS(dir)
		if err != nil {
			return nil, stats, err
		}
		fsys = dfs
	}
	s := &Store{
		fsys:    fsys,
		opts:    opts,
		active:  make(map[uint64]*activeSegment),
		reports: make(map[uint64]int64),
	}
	entries, err := loadManifest(fsys)
	if err != nil {
		return nil, stats, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].FromEpoch < entries[j].FromEpoch })
	s.entries = entries

	// Validate every sealed segment against its manifest entry: size,
	// whole-file checksum, then every block's own checksums, the block
	// count and the epochs the blocks claim. Receipts are not decoded —
	// bytes that pass the committed checksum are the bytes Seal wrote.
	var buf []byte // every file below is read through this
	for _, e := range entries {
		buf, err = fsys.ReadInto(e.File, buf)
		if err != nil {
			return nil, stats, fmt.Errorf("%w: %s: %v", ErrSegmentIntegrity, e.File, err)
		}
		data := buf
		if err := checkMagic(data); errors.Is(err, ErrSegmentVersion) {
			// Another release's store: refused before anything is
			// truncated, swept or removed.
			return nil, stats, fmt.Errorf("%s: %w", e.File, err)
		}
		if int64(len(data)) < e.Bytes {
			return nil, stats, fmt.Errorf("%w: %s has %d bytes, manifest committed %d",
				ErrSegmentIntegrity, e.File, len(data), e.Bytes)
		}
		if int64(len(data)) > e.Bytes {
			// An append torn by the crash after this segment sealed;
			// the committed prefix is authoritative.
			if err := fsys.Truncate(e.File, e.Bytes); err != nil {
				return nil, stats, fmt.Errorf("%w: %s: truncating torn tail: %v", ErrSegmentIntegrity, e.File, err)
			}
			stats.TruncatedBytes += int64(len(data)) - e.Bytes
			data = data[:e.Bytes]
		}
		if got := crc32.Checksum(data, crcTable); got != e.CRC {
			return nil, stats, fmt.Errorf("%w: %s checksum %08x, manifest committed %08x",
				ErrSegmentIntegrity, e.File, got, e.CRC)
		}
		blocks := 0
		_, err := scanBlocks(data, func(h blockHeader, _ []byte) error {
			if h.epoch < e.FromEpoch || h.epoch > e.ToEpoch {
				return fmt.Errorf("holds epoch %d outside [%d,%d]", h.epoch, e.FromEpoch, e.ToEpoch)
			}
			blocks++
			return nil
		})
		if err != nil {
			return nil, stats, fmt.Errorf("%w: %s: %v", ErrSegmentIntegrity, e.File, err)
		}
		if blocks != e.Blocks {
			return nil, stats, fmt.Errorf("%w: %s holds %d blocks, manifest committed %d",
				ErrSegmentIntegrity, e.File, blocks, e.Blocks)
		}
	}

	// Garbage-collect everything the manifest does not vouch for.
	inManifest := make(map[string]bool, len(entries))
	for _, e := range entries {
		inManifest[e.File] = true
	}
	names, err := fsys.List()
	if err != nil {
		return nil, stats, fmt.Errorf("segstore: list data dir: %w", err)
	}
	for _, name := range names {
		switch {
		case name == manifestName || inManifest[name]:
			continue
		case name == manifestTemp || strings.HasSuffix(name, ".tmp"):
			if err := fsys.Remove(name); err != nil {
				return nil, stats, fmt.Errorf("segstore: remove stale %s: %w", name, err)
			}
			stats.OrphansRemoved++
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			// An unsealed segment: the epoch in flight at the crash.
			// Walk its valid prefix for the record, then drop it —
			// commitment is at seal, and keeping a partial epoch would
			// double-count its receipts when the epoch is rebuilt.
			buf, err = fsys.ReadInto(name, buf)
			if err != nil {
				return nil, stats, fmt.Errorf("segstore: read partial %s: %w", name, err)
			}
			blocks := 0
			valid, scanErr := scanBlocks(buf, func(blockHeader, []byte) error { blocks++; return nil })
			stats.PartialSegments++
			stats.PartialBlocksDropped += blocks
			if scanErr != nil {
				stats.TornBytes += int64(len(buf) - valid)
			}
			if err := fsys.Remove(name); err != nil {
				return nil, stats, fmt.Errorf("segstore: remove partial %s: %w", name, err)
			}
		case strings.HasPrefix(name, repPrefix) && strings.HasSuffix(name, repSuffix):
			epoch, perr := parseReportName(name)
			if perr != nil || !s.sealedLocked(epoch) {
				// A report for an epoch that is not durably sealed: a
				// verdict without evidence — drop it.
				if err := fsys.Remove(name); err != nil {
					return nil, stats, fmt.Errorf("segstore: remove orphan report %s: %w", name, err)
				}
				stats.OrphansRemoved++
				continue
			}
			buf, err = fsys.ReadInto(name, buf)
			if err != nil {
				return nil, stats, fmt.Errorf("segstore: read report %s: %w", name, err)
			}
			if _, err := reportPayload(buf); err != nil {
				if err := fsys.Remove(name); err != nil {
					return nil, stats, fmt.Errorf("segstore: remove corrupt report %s: %w", name, err)
				}
				stats.CorruptReports++
				continue
			}
			s.reports[epoch] = int64(len(buf))
			s.reportBytes += int64(len(buf))
		}
	}
	if err := fsys.SyncDir(); err != nil {
		return nil, stats, fmt.Errorf("segstore: sync recovery cleanup: %w", err)
	}

	for _, e := range entries {
		stats.SealedEpochs += int(e.ToEpoch-e.FromEpoch) + 1
	}
	if n := len(entries); n > 0 {
		stats.HasSealed = true
		stats.LastSealed = entries[n-1].ToEpoch
	}
	stats.Reports = len(s.reports)
	return s, stats, nil
}

// Segment and report filename schemes. Single-epoch segments are
// "ep-<epoch>.seg"; compaction outputs "ep-<from>-<to>.seg".
const (
	segPrefix = "ep-"
	segSuffix = ".seg"
	repPrefix = "rep-"
	repSuffix = ".json"
)

// A report file is the canonical JSON followed by a fixed trailer: the
// CRC-32C of the JSON, little-endian — the checksum and byte order of
// the segment block framing. JSON that parses is not evidence the
// bytes are the ones verification wrote (a flipped digit still
// parses); the trailer is. A file from before the trailer existed
// fails the check like any other damaged one.
const reportTrailerLen = 4

// reportPayload checks a report file image against its trailer and
// returns the JSON inside it, a prefix of file.
func reportPayload(file []byte) ([]byte, error) {
	n := len(file) - reportTrailerLen
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d bytes hold no report", ErrCorruptReport, len(file))
	}
	if got, want := crc32.Checksum(file[:n], crcTable), binary.LittleEndian.Uint32(file[n:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, trailer says %08x", ErrCorruptReport, got, want)
	}
	return file[:n], nil
}

func segmentName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, epoch, segSuffix)
}

func mergedSegmentName(from, to uint64) string {
	return fmt.Sprintf("%s%016x-%016x%s", segPrefix, from, to, segSuffix)
}

func reportName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", repPrefix, epoch, repSuffix)
}

// parseReportName inverts reportName.
func parseReportName(name string) (uint64, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, repPrefix), repSuffix)
	var epoch uint64
	if _, err := fmt.Sscanf(hex, "%016x", &epoch); err != nil || len(hex) != 16 {
		return 0, fmt.Errorf("segstore: bad report name %q", name)
	}
	return epoch, nil
}

// sealedLocked reports whether epoch is inside any committed segment.
func (s *Store) sealedLocked(epoch uint64) bool {
	return s.entryForLocked(epoch) != nil
}

// entryForLocked returns the manifest entry holding epoch, nil if
// none.
func (s *Store) entryForLocked(epoch uint64) *SegmentInfo {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].ToEpoch >= epoch })
	if i < len(s.entries) && s.entries[i].FromEpoch <= epoch {
		return &s.entries[i]
	}
	return nil
}

// Append files one HOP's receipts for an open epoch into the epoch's
// active segment. Blocks are buffered by the OS until Seal syncs the
// file — durability is a property of sealed epochs only. Appending to
// an already-sealed epoch returns ErrEpochSealed (nothing is written):
// that is the no-double-count guard recovery-by-reexecution relies on.
func (s *Store) Append(epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealedLocked(epoch) {
		return fmt.Errorf("%w: epoch %d", ErrEpochSealed, epoch)
	}
	seg, err := s.activeLocked(epoch)
	if err != nil {
		return err
	}
	s.buf = AppendBlock(s.buf[:0], epoch, hop, samples, aggs)
	if _, err := seg.file.Write(s.buf); err != nil {
		return fmt.Errorf("segstore: append epoch %d hop %d: %w", epoch, hop, err)
	}
	seg.crc = crc32.Update(seg.crc, crcTable, s.buf)
	seg.bytes += int64(len(s.buf))
	seg.blocks++
	seg.samples += len(samples)
	seg.aggs += len(aggs)
	return nil
}

// activeLocked returns (creating if needed) the epoch's open segment.
func (s *Store) activeLocked(epoch uint64) (*activeSegment, error) {
	if seg := s.active[epoch]; seg != nil {
		return seg, nil
	}
	name := segmentName(epoch)
	file, err := s.fsys.OpenAppend(name)
	if err != nil {
		return nil, fmt.Errorf("segstore: open segment for epoch %d: %w", epoch, err)
	}
	if _, err := file.Write(segMagic[:]); err != nil {
		file.Close()
		// Leave no half-born active state; the file (possibly holding a
		// torn magic) is swept as a partial segment on the next Open.
		return nil, fmt.Errorf("segstore: start segment for epoch %d: %w", epoch, err)
	}
	seg := &activeSegment{
		file:  file,
		name:  name,
		bytes: int64(len(segMagic)),
		crc:   crc32.Checksum(segMagic[:], crcTable),
	}
	s.active[epoch] = seg
	return seg, nil
}

// Seal makes epoch durable: the active segment is synced to stable
// storage and the manifest is atomically rewritten to include it. When
// Seal returns nil the epoch survives kill -9; until then it is
// discardable. Sealing an epoch with no appended receipts commits an
// empty segment (epochs with zero traffic are still epochs). Sealing
// twice returns ErrEpochSealed.
func (s *Store) Seal(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealedLocked(epoch) {
		return fmt.Errorf("%w: epoch %d", ErrEpochSealed, epoch)
	}
	seg, err := s.activeLocked(epoch)
	if err != nil {
		return err
	}
	if err := seg.file.Sync(); err != nil {
		return fmt.Errorf("segstore: sync epoch %d: %w", epoch, err)
	}
	if err := seg.file.Close(); err != nil {
		return fmt.Errorf("segstore: close epoch %d: %w", epoch, err)
	}
	// The file handle is spent either way; if the manifest commit
	// below fails, the segment is left an uncommitted orphan for the
	// next Open to sweep.
	delete(s.active, epoch)
	entry := SegmentInfo{
		File:      seg.name,
		FromEpoch: epoch,
		ToEpoch:   epoch,
		Bytes:     seg.bytes,
		Blocks:    seg.blocks,
		CRC:       seg.crc,
		Samples:   seg.samples,
		Aggs:      seg.aggs,
	}
	entries := append(append([]SegmentInfo(nil), s.entries...), entry)
	sort.Slice(entries, func(i, j int) bool { return entries[i].FromEpoch < entries[j].FromEpoch })
	if err := commitManifest(s.fsys, entries); err != nil {
		return err
	}
	s.entries = entries
	if s.opts.AutoCompact {
		if _, err := s.compactLocked(); err != nil {
			return fmt.Errorf("segstore: auto-compact after epoch %d: %w", epoch, err)
		}
	}
	return nil
}

// LastSealed returns the newest durably sealed epoch, false when
// nothing has sealed.
func (s *Store) LastSealed() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return 0, false
	}
	return s.entries[len(s.entries)-1].ToEpoch, true
}

// SealedEpochs returns every durably sealed epoch, ascending (merged
// segments expand to their full inclusive range).
func (s *Store) SealedEpochs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for _, e := range s.entries {
		for ep := e.FromEpoch; ep <= e.ToEpoch; ep++ {
			out = append(out, ep)
			if ep == e.ToEpoch {
				break // guard uint64 wrap at the top of the range
			}
		}
	}
	return out
}

// PutReport durably files the epoch's canonical verdict-report bytes
// under their checksum trailer (write-temp, sync, rename, sync-dir —
// the same commit discipline as the manifest). data is not retained.
// The epoch must be sealed first — a verdict must never outlive the
// evidence it judges — else ErrNotSealed is returned (match with
// errors.Is). Re-putting a report replaces it (re-verification writes
// identical bytes).
func (s *Store) PutReport(epoch uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealedLocked(epoch) {
		return fmt.Errorf("%w: epoch %d has no durable evidence for a report", ErrNotSealed, epoch)
	}
	if len(data) == 0 {
		return fmt.Errorf("segstore: empty report for epoch %d", epoch)
	}
	name := reportName(epoch)
	tmp := name + ".tmp"
	if err := s.fsys.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("segstore: clear stale report temp: %w", err)
	}
	f, err := s.fsys.OpenAppend(tmp)
	if err != nil {
		return fmt.Errorf("segstore: stage report for epoch %d: %w", epoch, err)
	}
	var trailer [reportTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(data, crcTable))
	for _, part := range [][]byte{data, trailer[:]} {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return fmt.Errorf("segstore: stage report for epoch %d: %w", epoch, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("segstore: sync report for epoch %d: %w", epoch, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("segstore: close report for epoch %d: %w", epoch, err)
	}
	if err := s.fsys.Rename(tmp, name); err != nil {
		return fmt.Errorf("segstore: commit report for epoch %d: %w", epoch, err)
	}
	if err := s.fsys.SyncDir(); err != nil {
		return fmt.Errorf("segstore: sync report commit for epoch %d: %w", epoch, err)
	}
	size := int64(len(data) + reportTrailerLen)
	s.reportBytes += size - s.reports[epoch]
	s.reports[epoch] = size
	return nil
}

// HasReport reports whether a durable verdict report exists for epoch.
func (s *Store) HasReport(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.reports[epoch]
	return ok
}

// Report returns the epoch's stored verdict-report bytes — exactly the
// canonical JSON PutReport was given, verified against its checksum;
// fs.ErrNotExist (wrapped) when none is filed, ErrCorruptReport
// (wrapped) when the file no longer matches its trailer.
func (s *Store) Report(epoch uint64) ([]byte, error) {
	return s.ReportInto(epoch, nil)
}

// ReportInto is Report through the caller's buffer: the file is read
// into buf's storage (see FS.ReadInto) and the returned JSON is a
// prefix of it. The errors are Report's — fs.ErrNotExist,
// ErrCorruptReport — and beside one it returns the buffer emptied, so
// a serving loop keeps one buffer whatever happens.
func (s *Store) ReportInto(epoch uint64, buf []byte) ([]byte, error) {
	s.mu.Lock()
	_, ok := s.reports[epoch]
	s.mu.Unlock()
	if !ok {
		return buf[:0], fmt.Errorf("segstore: no report for epoch %d: %w", epoch, fs.ErrNotExist)
	}
	buf, err := s.fsys.ReadInto(reportName(epoch), buf)
	if err != nil {
		return buf, err
	}
	data, err := reportPayload(buf)
	if err != nil {
		return buf[:0], fmt.Errorf("segstore: epoch %d: %w", epoch, err)
	}
	return data, nil
}

// ReportEpochs returns every epoch with a durable report, ascending.
func (s *Store) ReportEpochs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.reports))
	for epoch := range s.reports {
		out = append(out, epoch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats is the store's occupancy snapshot, the source for the metrics
// exposition.
type Stats struct {
	SealedEpochs int   `json:"sealed_epochs"`
	Segments     int   `json:"segments"`
	Bytes        int64 `json:"bytes"`
	Samples      int   `json:"samples"`
	Aggs         int   `json:"aggs"`
	Reports      int   `json:"reports"`
	// ReportBytes is the size of the report files; Bytes counts the
	// sealed segments only.
	ReportBytes  int64 `json:"report_bytes"`
	ActiveEpochs int   `json:"active_epochs"`
}

// StoreStats returns the current occupancy.
func (s *Store) StoreStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:     len(s.entries),
		Reports:      len(s.reports),
		ReportBytes:  s.reportBytes,
		ActiveEpochs: len(s.active),
	}
	for _, e := range s.entries {
		st.SealedEpochs += int(e.ToEpoch-e.FromEpoch) + 1
		st.Bytes += e.Bytes
		st.Samples += e.Samples
		st.Aggs += e.Aggs
	}
	return st
}

// Close releases the open segment files. Unsealed epochs stay
// discardable — Close does not seal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for epoch, seg := range s.active {
		if err := seg.file.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("segstore: close active epoch %d: %w", epoch, err)
		}
		delete(s.active, epoch)
	}
	return firstErr
}
