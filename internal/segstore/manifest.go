package segstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"slices"
	"sort"
)

// The manifest is the commit record: a segment exists, durably, iff
// the manifest names it. It is a log of fixed-width records, each
// framed by its own CRC-32C (little-endian, like the segment blocks):
//
//	magic:   "VPMLOG1\n"
//	record:  kind[1] reserved[3] blocks[4] from[8] to[8] bytes[8]
//	         samples[4] aggs[4] segmentCRC[4] recordCRC[4]
//
// A seal record (kind 1) adds the segment holding epochs from..to,
// named by that range (segmentName); a retire record (kind 2) drops
// every segment whose newest epoch is at or below to. A seal appends
// one record and syncs the log, at the same cost however long the
// history. The one rewrite is the checkpoint (replaceFile, one seal
// record per live segment): at a fresh store's first seal, once at
// Open over an earlier release's JSON manifest, and when the log
// outgrows twice the live segments plus checkpointSlack records.
//
// A record a crash cut short at the tail never committed; Open
// truncates it. A complete record that fails its checksum is
// ErrCorruptManifest, the last one included: bit rot in the newest
// seal must not silently un-seal an epoch.

const (
	// manifestName is the manifest log's filename.
	manifestName = "MANIFEST"
	// recordLen is a log record's fixed size; recSeal and recRetire
	// are its kinds.
	recordLen = 48
	recSeal   = 1
	recRetire = 2
	// checkpointSlack is how many records beyond twice the live
	// segments the log holds before it is checkpointed. A store without
	// retention only appends seals, so its log never reaches the bound.
	checkpointSlack = 4
	// manifestVersion guards the schema of the JSON manifest earlier
	// releases wrote.
	manifestVersion = 1
)

// logMagic begins the manifest log.
var logMagic = [8]byte{'V', 'P', 'M', 'L', 'O', 'G', '1', '\n'}

// ErrCorruptManifest reports an unreadable or inconsistent manifest —
// the store refuses to open rather than silently starting with empty
// history (a node that lost its evidence must say so loudly; see
// cmd/vpm-node's boot error path).
var ErrCorruptManifest = errors.New("segstore: corrupt manifest")

// SegmentInfo is one sealed segment's manifest entry. A seal covers
// one epoch (FromEpoch == ToEpoch); a file an earlier release's merge
// wrote covers a range, and is still read.
type SegmentInfo struct {
	// File is the segment's filename within the store directory,
	// segmentName of its range.
	File string `json:"file"`
	// FromEpoch and ToEpoch bound the epochs the segment holds
	// (inclusive).
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
	// Bytes is the segment's committed size; recovery truncates any
	// bytes beyond it (an append torn by a crash after the last seal).
	Bytes int64 `json:"bytes"`
	// Blocks counts the record blocks, CRC is CRC-32C over the whole
	// committed file — recovery's integrity check.
	Blocks int    `json:"blocks"`
	CRC    uint32 `json:"crc32c"`
	// Samples and Aggs count the receipts held, for occupancy stats
	// and the metrics exposition.
	Samples int `json:"samples"`
	Aggs    int `json:"aggs"`
}

// jsonManifest is the form earlier releases committed, read once and
// converted.
type jsonManifest struct {
	Version int           `json:"version"`
	Entries []SegmentInfo `json:"entries"`
}

// DecodeManifest parses and validates manifest bytes in either form —
// the log, or the JSON manifest of earlier releases — and returns the
// live entries, sorted by epoch and non-overlapping. A short record at
// the log's tail is an append a crash cut short and is ignored.
// Malformed input returns an error wrapping ErrCorruptManifest, never a
// panic (FuzzDecodeManifest fuzzes it).
func DecodeManifest(data []byte) ([]SegmentInfo, error) {
	if !bytes.HasPrefix(data, logMagic[:]) {
		return decodeJSONManifest(data)
	}
	var entries []SegmentInfo
	var err error
	for i, rest := 0, data[len(logMagic):]; len(rest) >= recordLen; i, rest = i+1, rest[recordLen:] {
		if entries, err = applyRecord(entries, rest[:recordLen]); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCorruptManifest, i, err)
		}
	}
	return entries, nil
}

// applyRecord checks one record's checksum and replays it onto
// entries.
func applyRecord(entries []SegmentInfo, r []byte) ([]SegmentInfo, error) {
	le := binary.LittleEndian
	if crc32.Checksum(r[:recordLen-4], crcTable) != le.Uint32(r[recordLen-4:]) {
		return nil, errors.New("checksum")
	}
	e := SegmentInfo{
		Blocks:    int(le.Uint32(r[4:8])),
		FromEpoch: le.Uint64(r[8:16]),
		ToEpoch:   le.Uint64(r[16:24]),
		Bytes:     int64(le.Uint64(r[24:32])),
		Samples:   int(le.Uint32(r[32:36])),
		Aggs:      int(le.Uint32(r[36:40])),
		CRC:       le.Uint32(r[40:44]),
	}
	switch r[0] {
	case recSeal:
		e.File = segmentName(e.FromEpoch, e.ToEpoch)
		if err := checkEntry(e); err != nil {
			return nil, err
		}
		return insertEntry(entries, e)
	case recRetire:
		if n := len(entries); n == 0 || e.ToEpoch >= entries[n-1].ToEpoch {
			return nil, fmt.Errorf("retire through epoch %d leaves no live seal", e.ToEpoch)
		}
		return entries[sort.Search(len(entries), func(i int) bool { return entries[i].ToEpoch > e.ToEpoch }):], nil
	}
	return nil, fmt.Errorf("unknown kind %d", r[0])
}

// checkEntry holds a segment entry to what a seal record can carry.
func checkEntry(e SegmentInfo) error {
	fits32 := func(n int) bool { return n >= 0 && uint64(n) <= math.MaxUint32 }
	switch {
	case e.ToEpoch < e.FromEpoch, e.Bytes < int64(len(segMagic)), !fits32(e.Blocks), !fits32(e.Samples), !fits32(e.Aggs):
		return fmt.Errorf("entry %q is malformed", e.File)
	case e.File != segmentName(e.FromEpoch, e.ToEpoch):
		return fmt.Errorf("entry %q does not name epochs %d–%d", e.File, e.FromEpoch, e.ToEpoch)
	}
	return nil
}

// insertEntry returns entries with e added in epoch order, or an error
// when e overlaps a live segment. A seal after the newest appends; one
// anywhere else copies, so entries itself stays as it was for readers
// that still hold it.
func insertEntry(entries []SegmentInfo, e SegmentInfo) ([]SegmentInfo, error) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].FromEpoch > e.FromEpoch })
	if i > 0 && entries[i-1].ToEpoch >= e.FromEpoch || i < len(entries) && entries[i].FromEpoch <= e.ToEpoch {
		return nil, fmt.Errorf("segment %s overlaps a live one", e.File)
	}
	if i == len(entries) {
		return append(entries, e), nil
	}
	return slices.Insert(slices.Clip(entries), i, e), nil
}

// decodeJSONManifest parses the JSON manifest of earlier releases.
func decodeJSONManifest(data []byte) ([]SegmentInfo, error) {
	var m jsonManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptManifest, m.Version, manifestVersion)
	}
	var entries []SegmentInfo
	for i, e := range m.Entries {
		err := checkEntry(e)
		if err == nil {
			entries, err = insertEntry(entries, e)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrCorruptManifest, i, err)
		}
	}
	return entries, nil
}

// appendRecord appends one log record of kind for e to dst.
func appendRecord(dst []byte, kind byte, e SegmentInfo) []byte {
	le := binary.LittleEndian
	var r [recordLen]byte
	r[0] = kind
	le.PutUint32(r[4:8], uint32(e.Blocks))
	le.PutUint64(r[8:16], e.FromEpoch)
	le.PutUint64(r[16:24], e.ToEpoch)
	le.PutUint64(r[24:32], uint64(e.Bytes))
	le.PutUint32(r[32:36], uint32(e.Samples))
	le.PutUint32(r[36:40], uint32(e.Aggs))
	le.PutUint32(r[40:44], e.CRC)
	le.PutUint32(r[44:48], crc32.Checksum(r[:44], crcTable))
	return append(dst, r[:]...)
}

// encodeManifest renders the checkpoint of entries: the magic and one
// seal record per entry.
func encodeManifest(entries []SegmentInfo) []byte {
	out := append(make([]byte, 0, len(logMagic)+recordLen*len(entries)), logMagic[:]...)
	for _, e := range entries {
		out = appendRecord(out, recSeal, e)
	}
	return out
}

// commitRecord commits one record whose replay leaves entries live: an
// append and a sync of the log, or a checkpoint of entries when no log
// is open or the log has outgrown its bound. Only the writer calls it,
// or a caller holding the store idle.
func (s *Store) commitRecord(kind byte, e SegmentInfo, entries []SegmentInfo) error {
	if s.log == nil || s.logRecords >= 2*len(entries)+checkpointSlack {
		return s.checkpoint(entries)
	}
	if _, err := s.log.Write(appendRecord(nil, kind, e)); err != nil {
		return fmt.Errorf("segstore: append manifest record: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("segstore: sync manifest: %w", err)
	}
	s.logRecords++
	return nil
}

// checkpoint durably replaces the manifest with a log of entries
// (replaceFile) and opens the new log for appending. On any error the
// committed manifest is the old one or the new one, and no log is open.
func (s *Store) checkpoint(entries []SegmentInfo) error {
	if s.log != nil {
		err := s.log.Close()
		s.log = nil
		if err != nil {
			return fmt.Errorf("segstore: close manifest: %w", err)
		}
	}
	if err := replaceFile(s.fsys, manifestName, encodeManifest(entries)); err != nil {
		return fmt.Errorf("segstore: checkpoint manifest: %w", err)
	}
	var err error
	if s.log, err = s.fsys.OpenAppend(manifestName); err != nil {
		return fmt.Errorf("segstore: open manifest: %w", err)
	}
	s.logRecords = len(entries)
	return nil
}

// replaceFile durably replaces name with data: write name+".tmp", sync
// it, rename it over name, sync the directory. On any error name is
// untouched (the rename either happened whole or not at all); a temp a
// crash leaves behind is removed on Open.
func replaceFile(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	if err := fsys.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("clear stale temp: %w", err)
	}
	f, err := fsys.OpenAppend(tmp)
	if err != nil {
		return fmt.Errorf("stage: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("stage: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if err := fsys.SyncDir(); err != nil {
		return fmt.Errorf("sync commit: %w", err)
	}
	return nil
}
