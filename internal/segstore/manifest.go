package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
)

// The manifest is the commit record: a segment exists, durably, iff
// the manifest names it. Sealing an epoch (and every compaction)
// rewrites the manifest through write-temp → fsync → rename →
// fsync-dir, so the transition from "epoch N-1 durable" to "epoch N
// durable" is a single atomic rename — a crash observes one world or
// the other, never a half-written manifest. A half-written temp left
// behind by a crash is garbage-collected on Open.

// manifestName is the committed manifest's filename; manifestTemp is
// the staging name every rewrite goes through.
const (
	manifestName = "MANIFEST"
	manifestTemp = "MANIFEST.tmp"
)

// manifestVersion guards the manifest schema.
const manifestVersion = 1

// ErrCorruptManifest reports an unreadable or inconsistent manifest —
// the store refuses to open rather than silently starting with empty
// history (a node that lost its evidence must say so loudly; see
// cmd/vpm-node's boot error path).
var ErrCorruptManifest = errors.New("segstore: corrupt manifest")

// SegmentInfo is one sealed segment's manifest entry. A freshly sealed
// segment covers one epoch (FromEpoch == ToEpoch); compaction merges
// adjacent segments into multi-epoch files.
type SegmentInfo struct {
	// File is the segment's filename within the store directory.
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

// manifest is the committed store state.
type manifest struct {
	Version int           `json:"version"`
	Entries []SegmentInfo `json:"entries"`
}

// DecodeManifest parses and validates manifest bytes: entries must be
// sorted by epoch, non-overlapping, with sane ranges. Malformed input
// returns an error wrapping ErrCorruptManifest, never a panic
// (FuzzDecodeSegment fuzzes this decoder too).
func DecodeManifest(data []byte) ([]SegmentInfo, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptManifest, m.Version, manifestVersion)
	}
	for i, e := range m.Entries {
		if e.File == "" || e.ToEpoch < e.FromEpoch || e.Bytes < int64(len(segMagic)) || e.Blocks < 0 {
			return nil, fmt.Errorf("%w: entry %d (%q) is malformed", ErrCorruptManifest, i, e.File)
		}
		if i > 0 && e.FromEpoch <= m.Entries[i-1].ToEpoch {
			return nil, fmt.Errorf("%w: entry %d (%q) overlaps or disorders epochs", ErrCorruptManifest, i, e.File)
		}
	}
	return m.Entries, nil
}

// encodeManifest renders the committed form.
func encodeManifest(entries []SegmentInfo) ([]byte, error) {
	sorted := append([]SegmentInfo(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].FromEpoch < sorted[j].FromEpoch })
	return json.MarshalIndent(manifest{Version: manifestVersion, Entries: sorted}, "", " ")
}

// commitManifest durably replaces the manifest with entries: temp
// write, file sync, atomic rename, directory sync. On any error the
// committed manifest is untouched (the rename either happened whole or
// not at all).
func commitManifest(fsys FS, entries []SegmentInfo) error {
	data, err := encodeManifest(entries)
	if err != nil {
		return err
	}
	// A temp left by an earlier crash is garbage; start clean.
	if err := fsys.Remove(manifestTemp); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("segstore: clear stale manifest temp: %w", err)
	}
	f, err := fsys.OpenAppend(manifestTemp)
	if err != nil {
		return fmt.Errorf("segstore: stage manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("segstore: stage manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("segstore: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("segstore: close manifest: %w", err)
	}
	if err := fsys.Rename(manifestTemp, manifestName); err != nil {
		return fmt.Errorf("segstore: commit manifest: %w", err)
	}
	if err := fsys.SyncDir(); err != nil {
		return fmt.Errorf("segstore: sync manifest commit: %w", err)
	}
	return nil
}

// loadManifest reads the committed manifest; a missing file is an
// empty store (fresh directory), anything unreadable is
// ErrCorruptManifest.
func loadManifest(fsys FS) ([]SegmentInfo, error) {
	data, err := fsys.ReadInto(manifestName, nil)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	return DecodeManifest(data)
}
