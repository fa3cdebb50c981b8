package segstore

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"sort"
)

// Retention is the store's one compaction rule: with DiskRetention = R,
// segments whose newest epoch has fallen R or more behind the last
// sealed epoch are retired, and with each file go the reports it holds
// (a report never outlives its evidence). A multi-epoch file an earlier
// release's merge wrote stays whole while it straddles the horizon:
// dropping must never split a committed file. A pass commits one retire
// record before it removes anything, so a crash leaves the old world or
// the new one, and files the log no longer names are orphans the next
// Open sweeps.

// retainLocked runs one retention pass. The writer calls it under mu
// after each committed seal when AutoCompact is set.
func (s *Store) retainLocked() error {
	n, r := len(s.entries), uint64(s.opts.DiskRetention)
	if r == 0 || n == 0 || s.entries[n-1].ToEpoch+1 <= r {
		return nil
	}
	keepFrom := s.entries[n-1].ToEpoch + 1 - r
	drop := sort.Search(n, func(i int) bool { return s.entries[i].ToEpoch >= keepFrom })
	if drop == 0 {
		return nil
	}
	dropped, through := s.entries[:drop], s.entries[drop-1].ToEpoch
	if err := s.commitRecord(recRetire, SegmentInfo{ToEpoch: through}, s.entries[drop:]); err != nil {
		return err
	}
	s.entries = s.entries[drop:]
	maps.DeleteFunc(s.reports, func(epoch uint64, _ reportAt) bool { return epoch <= through })

	// Old files are garbage now; failing to remove one only costs an
	// orphan the next Open sweeps, so removal errors are not fatal to
	// the committed state — but they are still reported.
	var firstErr error
	for _, e := range dropped {
		delete(s.tails, e.File)
		if err := s.fsys.Remove(e.File); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = fmt.Errorf("segstore: remove retired %s: %w", e.File, err)
		}
	}
	if err := s.fsys.SyncDir(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("segstore: sync retention cleanup: %w", err)
	}
	return firstErr
}
