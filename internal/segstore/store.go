package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vpm/internal/core"
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
	// ErrCorruptReport reports a verdict report that fails its checksum
	// or does not decode.
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
	// keeps everything, and Open refuses a negative value. Retention
	// drops segments whose newest epoch has fallen DiskRetention or more
	// behind the last sealed one.
	DiskRetention int
	// AutoCompact runs a retention pass after every Seal, the
	// continuous-deployment mode. Off, nothing is retired.
	AutoCompact bool
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
	// TruncatedBytes counts bytes cut from committed files that had
	// grown past their committed state: a report block a crash tore (or
	// whose header no longer checks out) at the end of a sealed segment,
	// with everything after it, and a manifest record torn mid-append.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// OrphansRemoved counts what was garbage-collected besides partial
	// segments: stale temp files, segments retired (or merged away by an
	// earlier release) whose removal the crash interrupted, and report
	// files an earlier release wrote for epochs that are not sealed.
	OrphansRemoved int `json:"orphans_removed"`
	// CorruptReports counts report blocks (counted at every Open) and
	// earlier releases' report files that fail their checksum. An epoch
	// left without an intact report is verified again on re-execution.
	CorruptReports int `json:"corrupt_reports"`
}

// String renders the one-line boot summary.
func (s RecoveryStats) String() string {
	last := "none"
	if s.HasSealed {
		last = fmt.Sprintf("%d", s.LastSealed)
	}
	return fmt.Sprintf("recovered %d sealed epochs (last sealed epoch %s, %d reports); dropped %d partial segments (%d blocks, %d torn bytes), %d truncated bytes, %d orphans, %d corrupt reports",
		s.SealedEpochs, last, s.Reports, s.PartialSegments, s.PartialBlocksDropped, s.TornBytes, s.TruncatedBytes, s.OrphansRemoved, s.CorruptReports)
}

// op is one write handed to the writer: an appended block — one HOP's
// receipts, referenced, not copied (see core.StoreBackend) — or, when
// seal is set, the epoch's seal.
type op struct {
	epoch   uint64
	seal    bool
	hop     receipt.HOPID
	samples []receipt.SampleReceipt
	aggs    []receipt.AggReceipt
}

// activeSegment is one open (unsealed) epoch's segment file, written by
// the writer.
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
//
// Appends and seals are written behind the caller. Append and Seal
// queue an op and return; one writer goroutine — started by the call
// that finds it idle, gone once the queue is empty — applies the ops in
// order: it encodes each block into its epoch's segment and, at a seal,
// syncs the segment, appends the seal to the manifest log and applies
// retention. While it runs, the writer alone touches active, buf and
// log, and writes segments and the manifest; it publishes the
// committed state (entries, reports, activeEpochs) under mu. PutReport and every read first wait, under
// mu, until the writer has applied the ops handed over before the call
// (drainLocked) — not those handed over while they wait — and then use
// only what the writer publishes. The first failure it hits is kept in
// err and returned by every later write.
type Store struct {
	mu      sync.Mutex
	applied sync.Cond // signalled, on mu, as the writer finishes each op and when it exits
	fsys    FS
	opts    Options
	entries []SegmentInfo   // committed manifest, sorted by FromEpoch
	queue   []op            // handed to the writer, oldest first
	handed  uint64          // ops ever queued
	done    uint64          // ops applied, or dropped behind a failure
	sealing map[uint64]bool // epochs whose seal is queued, not committed
	writing bool            // the writer goroutine is running
	err     error           // the writer's first failure, sticky
	active  map[uint64]*activeSegment
	// activeEpochs is len(active) as the writer last published it.
	activeEpochs int
	// reports locates each epoch's durable report in its segment; tails
	// holds the size of each segment file that has report blocks past
	// its sealed Bytes.
	reports    map[uint64]reportAt
	tails      map[string]int64
	buf        []byte    // grow-only block-encode buffer
	log        File      // append handle on the manifest log; nil until one is committed
	logRecords int       // records in the log
	decoders   sync.Pool // *core.ReportDecoder, for rendering reports on read
}

// reportAt locates an epoch's report block in its segment file: the
// block's offset, and its payload's length and checksum.
type reportAt struct {
	off, len int64
	crc      uint32
}

// Open opens (or initializes) the store in dir, running crash
// recovery: the manifest log is replayed and its world validated
// segment by segment, report blocks are indexed (indexReports), and
// unsealed partial segments and stale temp files are removed. Every
// file is read through one buffer. Returns the store and what recovery
// found. Integrity failures (a corrupt manifest, a sealed segment that
// cannot be read back) return typed errors — ErrCorruptManifest,
// ErrSegmentIntegrity; match with errors.Is — and no store, so the
// caller decides whether to refuse service or rebuild. A sealed segment
// in another format version returns ErrSegmentVersion before any file
// is changed. An unsealed one is dropped like any partial segment: its
// epoch was never committed. What an earlier release wrote is converted
// once its segments validate: a JSON manifest to the log, each report
// file to a report block (convertReport). A report file that cannot be
// read at all is an error — deleting a verdict over a transient EIO
// would be. A negative DiskRetention returns ErrBadOptions before dir
// is created or read.
func Open(dir string, opts Options) (*Store, RecoveryStats, error) {
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
		sealing: make(map[uint64]bool),
		active:  make(map[uint64]*activeSegment),
		reports: make(map[uint64]reportAt),
		tails:   make(map[string]int64),
	}
	s.applied.L = &s.mu
	s.decoders.New = func() any { return new(core.ReportDecoder) }
	logData, err := fsys.ReadInto(manifestName, nil)
	switch {
	case err == nil:
		if s.entries, err = DecodeManifest(logData); err != nil {
			return nil, stats, err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, stats, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	entries := s.entries

	// Validate every sealed segment against its manifest entry: size,
	// checksum of the sealed bytes, then every block's own checksums, the
	// block count and the epochs the blocks claim. Receipts are not
	// decoded — bytes that pass the committed checksum are the bytes Seal
	// wrote. The report blocks past them are indexed.
	var buf []byte // every file below is read through this
	for i := range entries {
		e := &entries[i]
		buf, err = fsys.ReadInto(e.File, buf)
		if err != nil {
			return nil, stats, fmt.Errorf("%w: %s: %v", ErrSegmentIntegrity, e.File, err)
		}
		if err := checkMagic(buf); errors.Is(err, ErrSegmentVersion) {
			// Another release's store: refused before anything is
			// truncated, swept, converted or removed.
			return nil, stats, fmt.Errorf("%s: %w", e.File, err)
		}
		if int64(len(buf)) < e.Bytes {
			return nil, stats, fmt.Errorf("%w: %s has %d bytes, manifest committed %d",
				ErrSegmentIntegrity, e.File, len(buf), e.Bytes)
		}
		data := buf[:e.Bytes]
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
		end := s.indexReports(e, buf, &stats)
		if end < int64(len(buf)) {
			// A report block the crash tore, or whose header rotted, and
			// everything after it.
			if err := fsys.Truncate(e.File, end); err != nil {
				return nil, stats, fmt.Errorf("%w: %s: truncating torn tail: %v", ErrSegmentIntegrity, e.File, err)
			}
			stats.TruncatedBytes += int64(len(buf)) - end
		}
		if end > e.Bytes {
			s.tails[e.File] = end
		}
	}

	// Garbage-collect everything the manifest does not vouch for, and
	// move the report files an earlier release wrote into their segments.
	inManifest := make(map[string]bool, len(entries))
	for _, e := range entries {
		inManifest[e.File] = true
	}
	names, err := fsys.List()
	if err != nil {
		return nil, stats, fmt.Errorf("segstore: list data dir: %w", err)
	}
	// A segment the manifest does not name holding no epoch newer than
	// the committed ones was retired (or merged away by an earlier
	// release): the commit that dropped it happened, its removal did not.
	// Only newer ones were in flight.
	retired := func(name string) bool {
		last, ok := segmentLastEpoch(name)
		return ok && len(entries) > 0 && last <= entries[len(entries)-1].ToEpoch
	}
	for _, name := range names {
		switch {
		case name == manifestName || inManifest[name]:
			continue
		case strings.HasSuffix(name, ".tmp") || retired(name):
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
			if buf, err = s.convertReport(name, buf, &stats); err != nil {
				return nil, stats, err
			}
		}
	}
	if err := fsys.SyncDir(); err != nil {
		return nil, stats, fmt.Errorf("segstore: sync recovery cleanup: %w", err)
	}

	switch body := len(logData) - len(logMagic); {
	case len(logData) == 0:
		// A fresh store: its first seal creates the log.
	case !bytes.HasPrefix(logData, logMagic[:]):
		if err := s.checkpoint(entries); err != nil {
			return nil, stats, fmt.Errorf("segstore: convert manifest to a log: %w", err)
		}
	default:
		// A short record at the tail is an append the crash cut short.
		if torn := body % recordLen; torn > 0 {
			if err := fsys.Truncate(manifestName, int64(len(logData)-torn)); err != nil {
				return nil, stats, fmt.Errorf("segstore: truncate torn manifest record: %w", err)
			}
			stats.TruncatedBytes += int64(torn)
		}
		if s.log, err = fsys.OpenAppend(manifestName); err != nil {
			return nil, stats, fmt.Errorf("segstore: open manifest: %w", err)
		}
		s.logRecords = body / recordLen
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

// Segment filename scheme (see segmentName), and that of the report
// files earlier releases wrote (see convertReport).
const (
	segPrefix = "ep-"
	segSuffix = ".seg"
	repPrefix = "rep-"
	repSuffix = ".json"
)

// indexReports indexes each intact report block past e's sealed bytes
// in its file image data, a later block of an epoch over an earlier
// one. A block whose payload alone fails, or that names an epoch
// outside e, is skipped and counted. It returns where the walk stopped:
// the end of data, or the first block that is torn or whose header
// fails its checksum.
func (s *Store) indexReports(e *SegmentInfo, data []byte, stats *RecoveryStats) int64 {
	off := e.Bytes
	for off < int64(len(data)) {
		h, payload, err := nextBlock(data[off:])
		switch {
		case err == nil && h.epoch >= e.FromEpoch && h.epoch <= e.ToEpoch:
			s.reports[h.epoch] = reportAt{off, int64(len(payload)), binary.LittleEndian.Uint32(data[off+24:])}
		case err == nil || errors.Is(err, errPayloadChecksum):
			stats.CorruptReports++
		default:
			return off
		}
		off += int64(blockHeaderLen + len(payload))
	}
	return off
}

// fileReport appends payload as epoch's report block to e's segment
// file and syncs it, unless the report on file holds the same bytes. A
// failed write or sync may leave a torn block, so its error becomes the
// store's sticky one: no later report lands behind the tear, which the
// next Open truncates. The caller holds mu, or has the store to itself.
func (s *Store) fileReport(e *SegmentInfo, epoch uint64, payload []byte) error {
	block := appendReportBlock(make([]byte, 0, blockHeaderLen+len(payload)), epoch, payload)
	at := reportAt{e.Bytes, int64(len(payload)), binary.LittleEndian.Uint32(block[24:])}
	if old, ok := s.reports[epoch]; ok && old.len == at.len && old.crc == at.crc {
		return nil
	}
	f, err := s.fsys.OpenAppend(e.File)
	if err != nil {
		return fmt.Errorf("segstore: open epoch %d's segment for its report: %w", epoch, err)
	}
	_, err = f.Write(block)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.err = fmt.Errorf("segstore: file report for epoch %d: %w", epoch, err)
		return s.err
	}
	if tail, ok := s.tails[e.File]; ok {
		at.off = tail
	}
	s.tails[e.File] = at.off + int64(len(block))
	s.reports[epoch] = at
	return nil
}

// convertReport files the payload of the report file name an earlier
// release wrote (the payload, then its CRC-32C, little-endian) as
// written, in its epoch's segment, and removes the file. A file of an
// unsealed epoch is an orphan, one failing its checksum is corrupt;
// either is removed unconverted. It reads through buf and returns it.
func (s *Store) convertReport(name string, buf []byte, stats *RecoveryStats) ([]byte, error) {
	var e *SegmentInfo
	epoch, err := parseReportName(name)
	if err == nil {
		e = s.entryForLocked(epoch)
	}
	if e == nil {
		stats.OrphansRemoved++
	} else {
		if buf, err = s.fsys.ReadInto(name, buf); err != nil {
			return buf, fmt.Errorf("segstore: read report %s: %w", name, err)
		}
		n := len(buf) - 4
		if n <= 0 || crc32.Checksum(buf[:n], crcTable) != binary.LittleEndian.Uint32(buf[n:]) {
			stats.CorruptReports++
		} else if err := s.fileReport(e, epoch, buf[:n]); err != nil {
			return buf, err
		}
	}
	if err := s.fsys.Remove(name); err != nil {
		return buf, fmt.Errorf("segstore: remove report %s: %w", name, err)
	}
	return buf, nil
}

// segmentName names the segment file holding epochs from..to:
// "ep-<epoch>.seg" for one epoch, the file every seal writes, and
// "ep-<from>-<to>.seg" for a range, a file an earlier release's merge
// wrote.
func segmentName(from, to uint64) string {
	if from == to {
		return fmt.Sprintf("%s%016x%s", segPrefix, from, segSuffix)
	}
	return fmt.Sprintf("%s%016x-%016x%s", segPrefix, from, to, segSuffix)
}

// segmentLastEpoch returns the newest epoch a segment file holds, the
// last 16 hex digits of a segmentName; false for any other name.
func segmentLastEpoch(name string) (uint64, bool) {
	hex := strings.TrimSuffix(name, segSuffix)
	if !strings.HasPrefix(name, segPrefix) || len(hex) == len(name) || len(hex) < len(segPrefix)+16 {
		return 0, false
	}
	epoch, err := strconv.ParseUint(hex[len(hex)-16:], 16, 64)
	return epoch, err == nil
}

// parseReportName reads the epoch a report file's name spells,
// rep-<16 hex digits>.json: every one of them a digit.
func parseReportName(name string) (uint64, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, repPrefix), repSuffix)
	epoch, err := strconv.ParseUint(hex, 16, 64)
	if len(hex) != 16 || err != nil {
		return 0, fmt.Errorf("segstore: bad report name %q", name)
	}
	return epoch, nil
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

// Append hands one HOP's receipts for an open epoch to the writer,
// which encodes them as a block of the epoch's segment file. The
// slices are retained, not copied, until then (see core.StoreBackend).
// Blocks are buffered by the OS until the epoch's seal syncs the file —
// durability is a property of committed seals only. Appending to an
// epoch already sealed, handed over for sealing, or (with AutoCompact)
// at or below the retention horizon returns ErrEpochSealed (nothing is
// written): that is the no-double-count guard recovery-by-reexecution
// relies on, and retention would drop what an old epoch's write added. A failed background write is
// returned instead, by this and every later write.
func (s *Store) Append(epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(epoch); err != nil {
		return err
	}
	s.handLocked(op{epoch: epoch, hop: hop, samples: samples, aggs: aggs})
	return nil
}

// Seal hands epoch's seal to the writer and returns. After every op
// handed over before it, the writer syncs the epoch's segment and its
// directory entry to stable storage, then appends the seal's record to
// the manifest log and syncs it; the epoch survives kill -9 once that
// commit is done, which PutReport and Close wait for. Until then it is discardable. Sealing an epoch with no
// appended receipts commits an empty segment (epochs with zero traffic
// are still epochs). Sealing twice, or (with AutoCompact) at or below
// the retention horizon, returns ErrEpochSealed.
func (s *Store) Seal(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(epoch); err != nil {
		return err
	}
	s.sealing[epoch] = true
	s.handLocked(op{epoch: epoch, seal: true})
	return nil
}

// writableLocked returns the writer's sticky failure, else
// ErrEpochSealed when epoch is committed or handed over for its commit,
// or — with AutoCompact, the one mode that retires anything — lies at
// or below the retention horizon: DiskRetention epochs behind the newest
// committed seal, where retention retires what it holds.
func (s *Store) writableLocked(epoch uint64) error {
	if s.err != nil {
		return s.err
	}
	if s.sealing[epoch] || s.entryForLocked(epoch) != nil {
		return fmt.Errorf("%w: epoch %d", ErrEpochSealed, epoch)
	}
	if r, n := uint64(s.opts.DiskRetention), len(s.entries); s.opts.AutoCompact && r > 0 && n > 0 && s.entries[n-1].ToEpoch >= r {
		if horizon := s.entries[n-1].ToEpoch - r; epoch <= horizon {
			return fmt.Errorf("%w: epoch %d is at or below the retention horizon %d", ErrEpochSealed, epoch, horizon)
		}
	}
	return nil
}

// handLocked queues o for the writer, starting it if it is idle.
func (s *Store) handLocked(o op) {
	s.queue = append(s.queue, o)
	s.handed++
	if !s.writing {
		s.writing = true
		go s.write()
	}
}

// write is the writer goroutine: it applies the queued ops oldest
// first, publishing each committed seal and applying retention after
// it when AutoCompact is set, and returns once the queue is empty. A
// failure is kept as the store's sticky error, and the ops queued behind
// it are dropped undone.
func (s *Store) write() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
		o := s.queue[0]
		entries := s.entries
		s.mu.Unlock()
		var err error
		if o.seal {
			entries, err = s.commitSeal(o.epoch, entries)
		} else {
			err = s.appendBlock(o)
		}
		s.mu.Lock()
		s.queue[0] = op{}
		s.queue = s.queue[1:]
		s.done++
		s.activeEpochs = len(s.active)
		if err == nil && o.seal {
			s.entries = entries
			delete(s.sealing, o.epoch)
			if s.opts.AutoCompact {
				if err = s.retainLocked(); err != nil {
					err = fmt.Errorf("segstore: retention after epoch %d: %w", o.epoch, err)
				}
			}
		}
		if err != nil {
			s.err = err
			s.done += uint64(len(s.queue))
			clear(s.queue)
			s.queue = s.queue[:0]
			clear(s.sealing)
		}
		s.applied.Broadcast()
	}
	s.writing = false
	s.applied.Broadcast()
}

// appendBlock encodes o's receipts as one block of its epoch's active
// segment. Only the writer calls it, outside mu.
func (s *Store) appendBlock(o op) error {
	seg, err := s.openSegment(o.epoch)
	if err != nil {
		return err
	}
	s.buf = AppendBlock(s.buf[:0], o.epoch, o.hop, o.samples, o.aggs)
	if _, err := seg.file.Write(s.buf); err != nil {
		return fmt.Errorf("segstore: append epoch %d hop %d: %w", o.epoch, o.hop, err)
	}
	seg.crc = crc32.Update(seg.crc, crcTable, s.buf)
	seg.bytes += int64(len(s.buf))
	seg.blocks++
	seg.samples += len(o.samples)
	seg.aggs += len(o.aggs)
	return nil
}

// openSegment returns (creating if needed) the epoch's active segment.
func (s *Store) openSegment(epoch uint64) (*activeSegment, error) {
	if seg := s.active[epoch]; seg != nil {
		return seg, nil
	}
	name := segmentName(epoch, epoch)
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

// commitSeal syncs and closes epoch's segment, syncs the directory entry
// the segment's creation made, and commits the seal's record, returning
// entries plus the segment, or an error. Only the writer calls it,
// outside mu.
func (s *Store) commitSeal(epoch uint64, entries []SegmentInfo) ([]SegmentInfo, error) {
	seg, err := s.openSegment(epoch)
	if err != nil {
		return nil, err
	}
	if err := seg.file.Sync(); err != nil {
		return nil, fmt.Errorf("segstore: sync epoch %d: %w", epoch, err)
	}
	if err := seg.file.Close(); err != nil {
		return nil, fmt.Errorf("segstore: close epoch %d: %w", epoch, err)
	}
	// The file handle is spent either way; if the commit below fails,
	// the segment is left an uncommitted orphan for the next Open to
	// sweep.
	delete(s.active, epoch)
	if err := s.fsys.SyncDir(); err != nil {
		return nil, fmt.Errorf("segstore: sync epoch %d's directory entry: %w", epoch, err)
	}
	e := SegmentInfo{
		File:      seg.name,
		FromEpoch: epoch,
		ToEpoch:   epoch,
		Bytes:     seg.bytes,
		Blocks:    seg.blocks,
		CRC:       seg.crc,
		Samples:   seg.samples,
		Aggs:      seg.aggs,
	}
	if entries, err = insertEntry(entries, e); err == nil {
		err = s.commitRecord(recSeal, e, entries)
	}
	return entries, err
}

// drainLocked waits until the writer has applied every op handed to it
// before the call — every seal handed over before it is committed —
// and returns its sticky failure, if any. Ops handed over while it
// waits do not hold it up, so a reader beside a busy pipeline waits for
// a bounded amount of work. The caller holds mu; the writer may go on
// with later ops once it returns.
func (s *Store) drainLocked() error {
	for target := s.handed; s.done < target; {
		s.applied.Wait()
	}
	return s.err
}

// idleLocked waits until the writer goroutine has exited, and returns
// its sticky failure, if any. The caller holds mu and has the
// filesystem, active and buf to itself until it releases mu: no writer
// starts before then.
func (s *Store) idleLocked() error {
	for s.writing {
		s.applied.Wait()
	}
	return s.err
}

// LastSealed returns the newest durably sealed epoch, false when
// nothing has sealed. Like every read, it first waits for the seals
// already handed to the writer.
func (s *Store) LastSealed() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
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
	s.drainLocked()
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

// PutReport durably files the epoch's verdict report — its record,
// as the verifier encodes it (core.AppendReportRecord) — as a block
// appended to the epoch's segment file, which it then syncs: the report
// is durable once that sync returns, and it goes wherever its evidence
// goes. data is not retained. It first waits for every seal handed to
// the writer before it to commit, and returns the writer's failure if
// one did not: a report is filed only once its evidence is durable, so
// when PutReport returns nil the epoch and every epoch sealed before it
// survive kill -9. The epoch must be sealed — a verdict must never
// outlive the evidence it judges — else ErrNotSealed is returned (match
// with errors.Is). Re-putting a report replaces it; re-putting the same
// bytes (as re-verification does) writes nothing. A failed write or
// sync is returned by this and every later write (see fileReport).
func (s *Store) PutReport(epoch uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.drainLocked(); err != nil {
		return err
	}
	e := s.entryForLocked(epoch)
	if e == nil {
		return fmt.Errorf("%w: epoch %d has no durable evidence for a report", ErrNotSealed, epoch)
	}
	if len(data) == 0 {
		return fmt.Errorf("segstore: empty report for epoch %d", epoch)
	}
	return s.fileReport(e, epoch, data)
}

// HasReport reports whether a durable verdict report exists for epoch.
func (s *Store) HasReport(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	_, ok := s.reports[epoch]
	return ok
}

// Report returns the epoch's verdict as canonical JSON: the record
// PutReport filed, verified against its checksum, decoded and rendered
// (core.AppendEpochReport) — byte for byte the JSON of the report the
// verifier filed. A payload without the record magic, a report filed
// before records existed, is returned as it was written. The errors
// are fs.ErrNotExist (wrapped) when none is filed, ErrCorruptReport
// (wrapped) when the block no longer matches its checksum or its record
// does not decode.
func (s *Store) Report(epoch uint64) ([]byte, error) {
	return s.ReportInto(epoch, nil)
}

// ReportInto is Report through the caller's buffer: the epoch's segment
// is read into buf's storage (see FS.ReadInto), the payload moved to
// its front, the JSON is rendered over it,
// and the returned JSON is a prefix of that storage, grown as the JSON
// needs. The errors are Report's — fs.ErrNotExist, ErrCorruptReport —
// and beside one it returns the buffer emptied, so a serving loop keeps
// one buffer whatever happens.
func (s *Store) ReportInto(epoch uint64, buf []byte) ([]byte, error) {
	payload, err := s.payloadInto(epoch, buf)
	if err != nil || !core.IsReportRecord(payload) {
		return payload, err
	}
	d := s.decoders.Get().(*core.ReportDecoder)
	defer s.decoders.Put(d)
	rep, err := decodeReport(epoch, payload, d)
	if err != nil {
		return payload[:0], err
	}
	// The decoded report holds nothing of payload, so the JSON is
	// rendered over it, in room made once: a record renders to several
	// times its size (8–14× on a mesh), and an append that outgrows a
	// large buffer regrows it a quarter at a time, copying it each time.
	out, err := core.AppendEpochReport(slices.Grow(payload[:0], renderRoom*len(payload)), rep)
	if err != nil {
		return out[:0], fmt.Errorf("segstore: rendering epoch %d report: %w", epoch, err)
	}
	return out, nil
}

// renderRoom is the JSON bytes ReportInto makes room for per record
// byte before it renders.
const renderRoom = 16

// decodeReport decodes epoch's report payload through d: the record
// PutReport filed, or the JSON a report filed before records holds.
// The report is valid until d's next decode.
func decodeReport(epoch uint64, payload []byte, d *core.ReportDecoder) (*core.EpochReport, error) {
	var rep *core.EpochReport
	var err error
	if core.IsReportRecord(payload) {
		rep, err = d.Decode(payload)
	} else {
		var r core.EpochReport
		r, err = core.DecodeEpochReport(payload)
		rep = &r
	}
	if err != nil {
		return nil, fmt.Errorf("segstore: epoch %d: %w: %w", epoch, ErrCorruptReport, err)
	}
	return rep, nil
}

// payloadInto reads epoch's segment into buf's storage and returns its
// report block's payload, held to the block's checksums and moved to the
// front: a prefix of that storage, or it emptied beside an error.
func (s *Store) payloadInto(epoch uint64, buf []byte) ([]byte, error) {
	s.mu.Lock()
	s.drainLocked()
	at, ok := s.reports[epoch]
	var file string
	if ok {
		file = s.entryForLocked(epoch).File
	}
	s.mu.Unlock()
	if !ok {
		return buf[:0], fmt.Errorf("segstore: no report for epoch %d: %w", epoch, fs.ErrNotExist)
	}
	buf, err := s.fsys.ReadInto(file, buf)
	if err != nil {
		return buf[:0], err
	}
	h, payload, err := blockHeader{}, []byte(nil), error(io.ErrUnexpectedEOF)
	if end := at.off + blockHeaderLen + at.len; end <= int64(len(buf)) {
		h, payload, err = nextBlock(buf[at.off:end])
	}
	if err != nil || h.epoch != epoch || int64(len(payload)) != at.len {
		return buf[:0], fmt.Errorf("segstore: epoch %d: %w: report block at %d of %s: %v", epoch, ErrCorruptReport, at.off, file, err)
	}
	return buf[:copy(buf, payload)], nil
}

// ReportEpochs returns every epoch with a durable report, ascending.
func (s *Store) ReportEpochs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
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
	// ReportBytes is the size of the report blocks the segments hold
	// past their sealed bytes, framing included; Bytes counts the sealed
	// bytes only.
	ReportBytes int64 `json:"report_bytes"`
	// ActiveEpochs counts the epochs with appended receipts and no
	// seal yet.
	ActiveEpochs int `json:"active_epochs"`
}

// StoreStats returns the current occupancy.
func (s *Store) StoreStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	st := Stats{
		Segments:     len(s.entries),
		Reports:      len(s.reports),
		ActiveEpochs: s.activeEpochs,
	}
	for _, e := range s.entries {
		st.SealedEpochs += int(e.ToEpoch-e.FromEpoch) + 1
		st.Bytes += e.Bytes
		if tail, ok := s.tails[e.File]; ok {
			st.ReportBytes += tail - e.Bytes
		}
		st.Samples += e.Samples
		st.Aggs += e.Aggs
	}
	return st
}

// Close waits for the writer to apply everything handed to it, then
// releases the open segment files and the manifest log; no goroutine of the store runs after
// it. It returns the writer's failure, if any. Unsealed epochs stay
// discardable — Close does not seal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	firstErr := s.idleLocked()
	for epoch, seg := range s.active {
		if err := seg.file.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("segstore: close active epoch %d: %w", epoch, err)
		}
		delete(s.active, epoch)
	}
	s.activeEpochs = 0
	if s.log != nil {
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("segstore: close manifest: %w", err)
		}
		s.log = nil
	}
	return firstErr
}
