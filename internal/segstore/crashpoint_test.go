package segstore

// The crash-point property test: the store's durability contract is
// checked at EVERY possible crash point, not a sampled few. The same
// deterministic workload runs once uninterrupted to fix the expected
// state and once per mutating-operation budget N under FaultFS, which
// kills the store at exactly its Nth write/sync/rename/remove/truncate
// (tearing the fatal write). After each simulated crash the surviving
// MemFS bytes are reopened the way a restarted process would, and three
// invariants must hold at every N:
//
//  1. No durably sealed epoch is lost: every epoch whose Seal returned
//     nil, and whose commit the workload then waited for without
//     error, is in the recovered sealed set, byte-identical to
//     baseline.
//  2. Nothing phantom appears: the recovered sealed set is bounded by
//     the epochs the workload had attempted to seal, and every
//     surviving report decodes and matches baseline bytes.
//  3. No double-count: resuming the workload over the recovered store
//     converges to exactly the uninterrupted final state.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vpm/internal/receipt"
)

const (
	crashEpochs = 5
	crashReport = `{"epoch":%d,"keys":[]}`
)

var crashHops = []receipt.HOPID{0, 1}

// crashWorkload drives the deterministic workload against s for the
// given number of epochs, returning the epochs durably sealed (Seal
// returned nil and the wait for its commit did too; none when commit
// is false, which leaves the commit to PutReport's wait), the epochs
// whose report write returned nil, the epochs a Seal was at least
// attempted for, and the first error hit (nil if the workload
// completed). Both ways make the same filesystem operations in the
// same order: the writer commits each seal before the next call that
// waits for it runs.
func crashWorkload(s *Store, epochs uint64, commit bool) (durable, reported, attempted map[uint64]bool, err error) {
	durable = make(map[uint64]bool)
	reported = make(map[uint64]bool)
	attempted = make(map[uint64]bool)
	for epoch := uint64(0); epoch < epochs; epoch++ {
		for _, hop := range crashHops {
			samples, aggs := testReceipts(epoch, hop)
			if err = s.Append(epoch, hop, samples, aggs); err != nil {
				return
			}
		}
		attempted[epoch] = true
		if err = s.Seal(epoch); err != nil {
			return
		}
		if commit {
			if err = drain(s); err != nil {
				return
			}
			durable[epoch] = true
		}
		if err = s.PutReport(epoch, []byte(fmt.Sprintf(crashReport, epoch))); err != nil {
			return
		}
		reported[epoch] = true
	}
	return
}

// baselineState captures the uninterrupted end state: per-epoch decoded
// blocks and report bytes.
type baselineState struct {
	blocks  map[uint64][]Block
	reports map[uint64][]byte
}

func crashBaseline(t *testing.T) baselineState {
	t.Helper()
	s, _, err := Open("", Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := crashWorkload(s, crashEpochs, true); err != nil {
		t.Fatalf("uninterrupted workload failed: %v", err)
	}
	base := baselineState{blocks: make(map[uint64][]Block), reports: make(map[uint64][]byte)}
	for epoch := uint64(0); epoch < crashEpochs; epoch++ {
		blocks, err := s.ReadEpoch(epoch)
		if err != nil {
			t.Fatalf("baseline ReadEpoch(%d): %v", epoch, err)
		}
		base.blocks[epoch] = blocks
		rep, err := s.Report(epoch)
		if err != nil {
			t.Fatalf("baseline Report(%d): %v", epoch, err)
		}
		base.reports[epoch] = rep
	}
	return base
}

// totalOps counts the mutating operations of one uninterrupted
// workload (including Open's) by running it under a FaultFS whose
// budget is never exhausted.
func totalOps(t *testing.T) int {
	t.Helper()
	const huge = 1 << 20
	fault := NewFaultFS(NewMemFS(), huge)
	s, _, err := Open("", Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := crashWorkload(s, crashEpochs, true); err != nil {
		t.Fatalf("counting run failed: %v", err)
	}
	fault.mu.Lock()
	defer fault.mu.Unlock()
	return huge - fault.remaining
}

func TestCrashPointEveryOperation(t *testing.T) { sweepCrashPoints(t, true) }

// TestCrashPointWriteBehind is the sweep without the wait after each
// Seal: the writer commits epoch e while the workload goes on to file
// e's report, and a crash inside the commit surfaces at that PutReport.
// No Seal's return promises anything here; what must survive is every
// epoch whose report was filed, report included.
func TestCrashPointWriteBehind(t *testing.T) { sweepCrashPoints(t, false) }

// sweepCrashPoints runs the workload at every crash point, waiting for
// each seal's commit after Seal or not (see crashWorkload), and holds
// the recovered store to the three invariants. With no wait, (1)
// covers the reported epochs. Either way the recovered seals are a
// prefix of the attempted ones: the writer commits them in seal order.
func sweepCrashPoints(t *testing.T, commit bool) {
	base := crashBaseline(t)
	ops := totalOps(t)
	if ops < 20 {
		t.Fatalf("workload only has %d mutating ops — not exercising much", ops)
	}
	t.Logf("sweeping %d crash points", ops)

	for n := 1; n <= ops; n++ {
		mem := NewMemFS()
		fault := NewFaultFS(mem, n)

		var durable, reported, attempted map[uint64]bool
		s, _, err := Open("", Options{FS: fault})
		if err == nil {
			durable, reported, attempted, err = crashWorkload(s, crashEpochs, commit)
		}
		if n < ops {
			if err == nil {
				t.Fatalf("budget %d/%d: workload did not crash", n, ops)
			}
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("budget %d: real error, not the injected fault: %v", n, err)
			}
		} else if err != nil {
			t.Fatalf("budget %d covers the whole workload but it failed: %v", n, err)
		}

		// Reboot over the surviving bytes. Recovery itself must always
		// succeed, whatever the crash left behind.
		s2, stats, err := Open("", Options{FS: mem})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v\nstats: %s", n, err, stats)
		}

		recovered := make(map[uint64]bool)
		for _, epoch := range s2.SealedEpochs() {
			recovered[epoch] = true
		}
		// (1) every durably sealed epoch survives, bytes intact, and
		// so does every filed report.
		for epoch := range reported {
			if !s2.HasReport(epoch) {
				t.Fatalf("budget %d: filed report of epoch %d lost (recovered %v)", n, epoch, s2.ReportEpochs())
			}
			durable[epoch] = true
		}
		for epoch := range durable {
			if !recovered[epoch] {
				t.Fatalf("budget %d: durably sealed epoch %d lost (recovered %v)", n, epoch, s2.SealedEpochs())
			}
			blocks, err := s2.ReadEpoch(epoch)
			if err != nil {
				t.Fatalf("budget %d: ReadEpoch(%d) after recovery: %v", n, epoch, err)
			}
			if !reflect.DeepEqual(blocks, base.blocks[epoch]) {
				t.Fatalf("budget %d: epoch %d blocks differ from baseline after recovery", n, epoch)
			}
		}
		// (2) nothing phantom: the recovered seals are a prefix of the
		// attempted ones, and surviving reports are byte-exact.
		for epoch := uint64(0); epoch < uint64(len(recovered)); epoch++ {
			if !recovered[epoch] || !attempted[epoch] {
				t.Fatalf("budget %d: recovered %v, not a prefix of the attempted seals %v", n, s2.SealedEpochs(), attempted)
			}
		}
		for _, epoch := range s2.ReportEpochs() {
			if !recovered[epoch] {
				t.Fatalf("budget %d: report for unsealed epoch %d survived recovery", n, epoch)
			}
			rep, err := s2.Report(epoch)
			if err != nil {
				t.Fatalf("budget %d: Report(%d): %v", n, epoch, err)
			}
			if want := fmt.Sprintf(crashReport, epoch); string(rep) != want {
				t.Fatalf("budget %d: epoch %d report = %q, want %q", n, epoch, rep, want)
			}
		}

		// (3) resume to convergence: redo every epoch the recovered
		// store does not hold sealed (partial epochs were dropped whole,
		// so whole-epoch redo is the correct resume granularity), and
		// re-put any missing report.
		for epoch := uint64(0); epoch < crashEpochs; epoch++ {
			if !recovered[epoch] {
				for _, hop := range crashHops {
					samples, aggs := testReceipts(epoch, hop)
					if err := s2.Append(epoch, hop, samples, aggs); err != nil {
						t.Fatalf("budget %d: resume Append(%d,%d): %v", n, epoch, hop, err)
					}
				}
				if err := s2.Seal(epoch); err != nil {
					t.Fatalf("budget %d: resume Seal(%d): %v", n, epoch, err)
				}
			}
			if !s2.HasReport(epoch) {
				if err := s2.PutReport(epoch, []byte(fmt.Sprintf(crashReport, epoch))); err != nil {
					t.Fatalf("budget %d: resume PutReport(%d): %v", n, epoch, err)
				}
			}
		}
		for epoch := uint64(0); epoch < crashEpochs; epoch++ {
			blocks, err := s2.ReadEpoch(epoch)
			if err != nil {
				t.Fatalf("budget %d: converged ReadEpoch(%d): %v", n, epoch, err)
			}
			if !reflect.DeepEqual(blocks, base.blocks[epoch]) {
				t.Fatalf("budget %d: epoch %d diverged from baseline after resume — double-count or loss", n, epoch)
			}
			rep, err := s2.Report(epoch)
			if err != nil {
				t.Fatalf("budget %d: converged Report(%d): %v", n, epoch, err)
			}
			if string(rep) != string(base.reports[epoch]) {
				t.Fatalf("budget %d: epoch %d report diverged after resume", n, epoch)
			}
		}
	}
}

// TestCrashPointWithAutoCompact repeats the sweep with AutoCompact on
// and a tight retention, so crash points also land inside retention's
// retire-record/remove sequence and inside the manifest checkpoint the
// retire records bring on — recovery must cope with half-finished
// retention and checkpoints exactly as with half-finished seals.
const compactEpochs = 8

func TestCrashPointWithAutoCompact(t *testing.T) {
	opts := func(fsys FS) Options {
		return Options{FS: fsys, AutoCompact: true, DiskRetention: 3}
	}

	// Baseline final state under compaction: only the retained window
	// survives, so capture per-epoch blocks for the retained epochs.
	sBase, _, err := Open("", opts(NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := crashWorkload(sBase, compactEpochs, true); err != nil {
		t.Fatalf("uninterrupted compacting workload failed: %v", err)
	}
	baseSealed := sBase.SealedEpochs()

	const huge = 1 << 20
	counted := &countFS{FS: NewMemFS()}
	fault := NewFaultFS(counted, huge)
	sCount, _, err := Open("", opts(fault))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := crashWorkload(sCount, compactEpochs, true); err != nil {
		t.Fatalf("counting run failed: %v", err)
	}
	fault.mu.Lock()
	ops := huge - fault.remaining
	fault.mu.Unlock()
	// The first seal creates the log through a checkpoint; at least one
	// more must come from the retire records, or the sweep never crashes
	// one.
	recorded, _ := counted.take()
	checkpoints := 0
	for _, op := range recorded {
		if op == (fsOp{"rename", manifestName}) {
			checkpoints++
		}
	}
	if checkpoints < 2 {
		t.Fatalf("the workload checkpoints the manifest %d times, want a checkpoint beside the first seal's", checkpoints)
	}
	t.Logf("sweeping %d crash points with auto-compaction (%d checkpoints)", ops, checkpoints)

	for n := 1; n <= ops; n++ {
		mem := NewMemFS()
		durable := make(map[uint64]bool)
		s, _, err := Open("", opts(NewFaultFS(mem, n)))
		if err == nil {
			durable, _, _, err = crashWorkload(s, compactEpochs, true)
		}
		if n == ops && err != nil {
			t.Fatalf("budget %d covers the whole workload but it failed: %v", n, err)
		}

		s2, stats, err := Open("", opts(mem))
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v\nstats: %s", n, err, stats)
		}
		recovered := make(map[uint64]bool)
		for _, epoch := range s2.SealedEpochs() {
			recovered[epoch] = true
		}
		// Compaction may legitimately have dropped old durable epochs;
		// what may never vanish is anything inside the retention window
		// of the last sealed epoch *on disk*. (That can run ahead of the
		// durable set the workload observed: a crash inside Seal after
		// the manifest commit leaves the epoch durable even though the
		// call returned the injected fault — and the same Seal may have
		// already run a retention pass against the newer horizon.)
		recoveredLast, haveRecovered := s2.LastSealed()
		if !haveRecovered && len(durable) > 0 {
			t.Fatalf("budget %d: all durable epochs lost (durable %v)", n, durable)
		}
		var keepFrom uint64
		if haveRecovered && recoveredLast+1 > 3 {
			keepFrom = recoveredLast + 1 - 3
		}
		for epoch := range durable {
			if epoch >= keepFrom && !recovered[epoch] {
				t.Fatalf("budget %d: retained durable epoch %d lost (recovered %v)", n, epoch, s2.SealedEpochs())
			}
		}
		// Recovered segments must always read back clean.
		for epoch := range recovered {
			if _, err := s2.ReadEpoch(epoch); err != nil {
				t.Fatalf("budget %d: ReadEpoch(%d): %v", n, epoch, err)
			}
		}
	}

	// Sanity: the compacting baseline really did retain only a window.
	if len(baseSealed) >= compactEpochs {
		t.Fatalf("compaction baseline retained %v — retention never kicked in", baseSealed)
	}
}

// TestCrashPointCountsOnlyInFlightAsPartial sweeps a retaining store's
// crash points: a crash between a retention pass's retire record and
// its removals leaves a retired segment behind. Recovery removes it as
// an orphan; it counts as partial only the segments of epochs newer
// than the last seal, the work in flight. Which epoch a leftover file
// holds is looked up among the names the workload's epochs are written
// under, spelled out here, not parsed the way Open parses them.
func TestCrashPointCountsOnlyInFlightAsPartial(t *testing.T) {
	opts := func(fsys FS) Options { return Options{FS: fsys, AutoCompact: true, DiskRetention: 2} }
	epochOf := make(map[string]uint64)
	for epoch := uint64(0); epoch < compactEpochs; epoch++ {
		epochOf[fmt.Sprintf("ep-%016x.seg", epoch)] = epoch
	}
	retiredSeen := 0
	for n, done := 1, false; !done; n++ {
		mem := NewMemFS()
		s, _, err := Open("", opts(NewFaultFS(mem, n)))
		if err == nil {
			_, _, _, err = crashWorkload(s, compactEpochs, true)
		}
		done = err == nil

		committed := make(map[string]bool)
		var last uint64
		if data, err := mem.ReadInto(manifestName, nil); err == nil {
			entries, err := DecodeManifest(data)
			if err != nil {
				t.Fatalf("budget %d: committed manifest: %v", n, err)
			}
			for _, e := range entries {
				committed[e.File] = true
				last = e.ToEpoch
			}
		}
		names, _ := mem.List()
		partial := 0
		for _, name := range names {
			if committed[name] || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
				continue
			}
			epoch, ok := epochOf[name]
			switch {
			case !ok:
				t.Fatalf("budget %d: segment file %s holds none of the workload's epochs", n, name)
			case len(committed) > 0 && epoch <= last:
				retiredSeen++
			default:
				partial++
			}
		}
		_, stats, err := Open("", opts(mem))
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", n, err)
		}
		if stats.PartialSegments != partial {
			t.Fatalf("budget %d: %d partial segments counted, %d of the uncommitted segments are newer than last seal %d (files %v)",
				n, stats.PartialSegments, partial, last, names)
		}
	}
	if retiredSeen == 0 {
		t.Fatal("no crash point left a retired segment behind: the sweep checks nothing")
	}
}
