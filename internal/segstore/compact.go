package segstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sort"
)

// Compaction keeps the store's file count and footprint bounded under
// continuous operation, LSM-style but simpler: segments are already
// sorted, non-overlapping epoch ranges, so "merging" is concatenation.
//
//   - Retention: with DiskRetention = R, segments whose newest epoch
//     has fallen R or more behind the last sealed epoch are dropped,
//     along with their epochs' verdict reports (a report never
//     outlives its evidence — the invariant Open enforces).
//   - Size-tiering: a run of CompactFanIn or more adjacent segments
//     each under CompactMaxBytes is concatenated into one multi-epoch
//     segment. Files that reach CompactMaxBytes stop merging — they
//     are their tier's output.
//
// Every pass commits through the same manifest rename as Seal, staged
// merge files included, so a crash at any point leaves either the old
// world or the new one: a merged file renamed before the manifest
// commit is an uncommitted orphan the next Open sweeps (its receipts
// still live in the old segments); old files surviving after the
// commit are orphans swept the same way.

// CompactStats reports one pass's work.
type CompactStats struct {
	// SegmentsDropped / EpochsDropped / ReportsDropped are retention's
	// work; BytesReclaimed counts their bytes.
	SegmentsDropped int   `json:"segments_dropped"`
	EpochsDropped   int   `json:"epochs_dropped"`
	ReportsDropped  int   `json:"reports_dropped"`
	BytesReclaimed  int64 `json:"bytes_reclaimed"`
	// Merges counts size-tier concatenations; SegmentsMerged the input
	// files consumed.
	Merges         int `json:"merges"`
	SegmentsMerged int `json:"segments_merged"`
}

// changed reports whether the pass did anything.
func (c CompactStats) changed() bool {
	return c.SegmentsDropped > 0 || c.Merges > 0 || c.ReportsDropped > 0
}

func (s *Store) compactLocked() (CompactStats, error) {
	var st CompactStats
	entries := append([]SegmentInfo(nil), s.entries...)
	var obsolete []string // files to remove after the manifest commit

	// Retention: drop whole segments strictly older than the horizon.
	// Segments straddling the horizon stay until they age out whole —
	// dropping must never split a committed file.
	var keepFrom uint64
	if r := s.opts.DiskRetention; r > 0 && len(entries) > 0 {
		last := entries[len(entries)-1].ToEpoch
		if last+1 > uint64(r) {
			keepFrom = last + 1 - uint64(r)
		}
		kept := entries[:0]
		for _, e := range entries {
			if e.ToEpoch < keepFrom {
				obsolete = append(obsolete, e.File)
				st.SegmentsDropped++
				st.EpochsDropped += int(e.ToEpoch-e.FromEpoch) + 1
				st.BytesReclaimed += e.Bytes
				continue
			}
			kept = append(kept, e)
		}
		entries = kept
	}

	// Size-tiering: concatenate eligible runs. With retention on, a
	// merged segment may never span more epochs than the retention
	// window — otherwise it would always straddle the moving horizon
	// (straddlers are never split) and retention could never fire.
	// Capped tiles age out whole.
	if s.opts.CompactFanIn > 0 {
		var span uint64
		if r := s.opts.DiskRetention; r > 0 {
			span = uint64(r)
		}
		var out []SegmentInfo
		for i := 0; i < len(entries); {
			j := i
			for j < len(entries) && entries[j].Bytes < s.opts.CompactMaxBytes &&
				(span == 0 || entries[j].ToEpoch-entries[i].FromEpoch+1 <= span) {
				j++
			}
			if j-i >= s.opts.CompactFanIn {
				merged, err := s.mergeRunLocked(entries[i:j])
				if err != nil {
					return st, err
				}
				for _, e := range entries[i:j] {
					obsolete = append(obsolete, e.File)
				}
				out = append(out, merged)
				st.Merges++
				st.SegmentsMerged += j - i
				i = j
				continue
			}
			if j == i {
				// entries[i] is at or above the size cap: its own tier.
				out = append(out, entries[i])
				i++
				continue
			}
			out = append(out, entries[i:j]...)
			i = j
		}
		entries = out
	}

	// Reports for retention-dropped epochs.
	var dropReports []uint64
	for epoch := range s.reports {
		if epoch < keepFrom {
			dropReports = append(dropReports, epoch)
		}
	}
	sort.Slice(dropReports, func(i, j int) bool { return dropReports[i] < dropReports[j] })

	if !st.changed() && len(dropReports) == 0 {
		return st, nil
	}
	if err := commitManifest(s.fsys, entries); err != nil {
		return st, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].FromEpoch < entries[j].FromEpoch })
	s.entries = entries

	// Old files are garbage now; failing to remove one only costs an
	// orphan the next Open sweeps, so removal errors are not fatal to
	// the committed state — but they are still reported.
	var firstErr error
	for _, name := range obsolete {
		if err := s.fsys.Remove(name); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = fmt.Errorf("segstore: remove compacted %s: %w", name, err)
		}
	}
	for _, epoch := range dropReports {
		if err := s.fsys.Remove(reportName(epoch)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			if firstErr == nil {
				firstErr = fmt.Errorf("segstore: remove retired report for epoch %d: %w", epoch, err)
			}
			continue
		}
		s.reportBytes -= s.reports[epoch]
		delete(s.reports, epoch)
		st.ReportsDropped++
	}
	if err := s.fsys.SyncDir(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("segstore: sync compaction cleanup: %w", err)
	}
	return st, firstErr
}

// mergeRunLocked concatenates a run of adjacent segments into one
// staged, durably renamed multi-epoch file and returns its manifest
// entry. The inputs are untouched; the caller retires them after the
// manifest commit.
func (s *Store) mergeRunLocked(run []SegmentInfo) (SegmentInfo, error) {
	size := int64(0)
	for _, e := range run {
		size += e.Bytes
	}
	out := append(make([]byte, 0, size), segMagic[:]...)
	entry := SegmentInfo{
		FromEpoch: run[0].FromEpoch,
		ToEpoch:   run[len(run)-1].ToEpoch,
	}
	var data []byte // each input in turn
	for _, e := range run {
		var err error
		data, err = s.fsys.ReadInto(e.File, data)
		if err != nil {
			return entry, fmt.Errorf("%w: merging %s: %v", ErrSegmentIntegrity, e.File, err)
		}
		if int64(len(data)) != e.Bytes || crc32.Checksum(data, crcTable) != e.CRC {
			return entry, fmt.Errorf("%w: merging %s: size or checksum drifted from manifest", ErrSegmentIntegrity, e.File)
		}
		out = append(out, data[len(segMagic):]...)
		entry.Blocks += e.Blocks
		entry.Samples += e.Samples
		entry.Aggs += e.Aggs
	}
	entry.File = mergedSegmentName(entry.FromEpoch, entry.ToEpoch)
	entry.Bytes = int64(len(out))
	entry.CRC = crc32.Checksum(out, crcTable)

	tmp := entry.File + ".tmp"
	if err := s.fsys.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return entry, fmt.Errorf("segstore: clear stale merge temp: %w", err)
	}
	// A leftover target from an interrupted earlier merge of the same
	// range is stale; the rename below replaces it atomically.
	f, err := s.fsys.OpenAppend(tmp)
	if err != nil {
		return entry, fmt.Errorf("segstore: stage merge %s: %w", entry.File, err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return entry, fmt.Errorf("segstore: stage merge %s: %w", entry.File, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return entry, fmt.Errorf("segstore: sync merge %s: %w", entry.File, err)
	}
	if err := f.Close(); err != nil {
		return entry, fmt.Errorf("segstore: close merge %s: %w", entry.File, err)
	}
	if err := s.fsys.Rename(tmp, entry.File); err != nil {
		return entry, fmt.Errorf("segstore: place merge %s: %w", entry.File, err)
	}
	if err := s.fsys.SyncDir(); err != nil {
		return entry, fmt.Errorf("segstore: sync merge %s: %w", entry.File, err)
	}
	return entry, nil
}
