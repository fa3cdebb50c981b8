package segstore

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vpm/internal/receipt"
)

// The seal hand-off: Seal returns before its epoch's segment is
// written and synced; PutReport and every read wait for the ops handed
// to the writer before them, and Close for the writer to exit. The gate below stands in for a slow disk, so none of this
// depends on how fast the machine is.

// gateFS is a MemFS whose Sync of a segment file the store creates — a
// seal's, not a report's — announces itself on entered and then waits
// for its result on result.
type gateFS struct {
	*MemFS
	entered chan string
	result  chan error
}

func newGateFS() gateFS {
	return gateFS{MemFS: NewMemFS(), entered: make(chan string), result: make(chan error)}
}

// OpenAppend implements FS.
func (g gateFS) OpenAppend(name string) (File, error) {
	_, readErr := g.MemFS.ReadInto(name, nil)
	created := readErr != nil
	f, err := g.MemFS.OpenAppend(name)
	if err != nil || !strings.HasPrefix(name, segPrefix) || !created {
		return f, err
	}
	return gateFile{File: f, name: name, g: g}, nil
}

type gateFile struct {
	File
	name string
	g    gateFS
}

func (f gateFile) Sync() error {
	f.g.entered <- f.name
	return <-f.g.result
}

// sealBlocked appends one HOP's receipts to epoch, seals it and waits
// until the writer is inside the segment's Sync, which stays blocked
// until the test sends its result.
func sealBlocked(t *testing.T, s *Store, g gateFS, epoch uint64) {
	t.Helper()
	samples, aggs := testReceipts(epoch, 0)
	if err := s.Append(epoch, 0, samples, aggs); err != nil {
		t.Fatalf("Append(%d): %v", epoch, err)
	}
	if err := s.Seal(epoch); err != nil {
		t.Fatalf("Seal(%d): %v", epoch, err)
	}
	if name := <-g.entered; name != segmentName(epoch, epoch) {
		t.Fatalf("writer syncs %s, want %s", name, segmentName(epoch, epoch))
	}
}

// TestSealReturnsBeforeItsSync: Seal hands the epoch over and returns
// while the segment's Sync is still blocked; a queued epoch is already
// sealed as far as Append and Seal are concerned; PutReport returns
// only once that Sync is released and the manifest names the epoch.
func TestSealReturnsBeforeItsSync(t *testing.T) {
	g := newGateFS()
	s, _, err := Open("", Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	sealBlocked(t, s, g, 0)

	samples, aggs := testReceipts(0, 1)
	if err := s.Append(0, 1, samples, aggs); !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("Append to a queued epoch: err = %v, want ErrEpochSealed", err)
	}
	if err := s.Seal(0); !errors.Is(err, ErrEpochSealed) {
		t.Fatalf("second Seal of a queued epoch: err = %v, want ErrEpochSealed", err)
	}

	done := make(chan error)
	go func() { done <- s.PutReport(0, []byte(`{"epoch":0}`)) }()
	select {
	case err := <-done:
		t.Fatalf("PutReport returned (%v) while the seal's Sync was blocked", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := g.ReadInto(manifestName, nil); err == nil {
		t.Fatal("manifest committed before the segment's Sync returned")
	}
	g.result <- nil
	if err := <-done; err != nil {
		t.Fatalf("PutReport after the Sync: %v", err)
	}
	data, err := g.ReadInto(manifestName, nil)
	if err != nil {
		t.Fatalf("no manifest once PutReport returned: %v", err)
	}
	if entries, err := DecodeManifest(data); err != nil || len(entries) != 1 || entries[0].ToEpoch != 0 {
		t.Fatalf("manifest once PutReport returned: %v, %v; want epoch 0", entries, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLaterHandOffDoesNotDelayPutReport: PutReport waits for the seals
// handed over before it, not for those handed over while it waits, so
// a pipeline that keeps sealing cannot hold a report back.
func TestLaterHandOffDoesNotDelayPutReport(t *testing.T) {
	g := newGateFS()
	s, _, err := Open("", Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	sealBlocked(t, s, g, 0)
	done := make(chan error)
	go func() { done <- s.PutReport(0, []byte(`{"epoch":0}`)) }()
	waitDraining(t, "PutReport")

	samples, aggs := testReceipts(1, 0)
	if err := s.Append(1, 0, samples, aggs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(1); err != nil {
		t.Fatal(err)
	}
	g.result <- nil
	if name := <-g.entered; name != segmentName(1, 1) {
		t.Fatalf("writer syncs %s, want %s", name, segmentName(1, 1))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("PutReport(0): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PutReport(0) still waits while epoch 1, handed over after it, is syncing")
	}
	g.result <- nil
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.HasReport(0) || len(s.SealedEpochs()) != 2 {
		t.Fatalf("after Close: report 0 filed %v, sealed %v", s.HasReport(0), s.SealedEpochs())
	}
}

// waitDraining polls the goroutine dump until a goroutine is parked in
// drainLocked under the Store method caller: it has taken the count of
// ops it waits for.
func waitDraining(t *testing.T, caller string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "(*Cond).Wait") && strings.Contains(g, "(*Store).drainLocked") && strings.Contains(g, "(*Store)."+caller) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s waiting in drainLocked", caller)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterFailureIsSticky: a Sync that fails in the writer is
// returned by the next call that waits for it and by every write after
// it; the failed epoch never reaches the manifest.
func TestWriterFailureIsSticky(t *testing.T) {
	g := newGateFS()
	s, _, err := Open("", Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	sealBlocked(t, s, g, 0)
	g.result <- nil
	sealBlocked(t, s, g, 1)
	injected := errors.New("injected sync failure")
	g.result <- injected

	if err := s.PutReport(0, []byte(`{"epoch":0}`)); !errors.Is(err, injected) {
		t.Fatalf("PutReport after the failed Sync: err = %v, want the injected failure", err)
	}
	samples, aggs := testReceipts(2, 0)
	for name, call := range map[string]func() error{
		"Append":    func() error { return s.Append(2, 0, samples, aggs) },
		"Seal":      func() error { return s.Seal(2) },
		"PutReport": func() error { return s.PutReport(0, []byte(`{"epoch":0}`)) },
		"Close":     s.Close,
	} {
		if err := call(); !errors.Is(err, injected) {
			t.Fatalf("%s after the failure: err = %v, want the injected failure", name, err)
		}
	}
	if got := s.SealedEpochs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("SealedEpochs = %v, want [0]: epoch 1's commit failed", got)
	}
}

// TestCloseLeavesNoWriter: Close commits what was queued, and once it
// returns the store runs no goroutine.
func TestCloseLeavesNoWriter(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGateFS()
	s, _, err := Open("", Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	sealBlocked(t, s, g, 0)
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	g.result <- nil
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.SealedEpochs(); len(got) != 1 {
		t.Fatalf("SealedEpochs after Close = %v, want the queued epoch committed", got)
	}
	// The writer has signalled its exit by now; the runtime may take a
	// moment to retire the goroutine.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the store opened", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterCommitsInSealOrder: seals handed over faster than the
// writer commits them queue up, and reading back waits for all of them.
func TestWriterCommitsInSealOrder(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 40
	hops := []receipt.HOPID{0, 1, 2}
	for epoch := uint64(0); epoch < epochs; epoch++ {
		for _, hop := range hops {
			samples, aggs := testReceipts(epoch, hop)
			if err := s.Append(epoch, hop, samples, aggs); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Seal(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SealedEpochs(); len(got) != epochs {
		t.Fatalf("%d sealed epochs, want %d", len(got), epochs)
	}
	for epoch := uint64(0); epoch < epochs; epoch++ {
		blocks, err := s.ReadEpoch(epoch)
		if err != nil || len(blocks) != len(hops) {
			t.Fatalf("ReadEpoch(%d): %d blocks, %v", epoch, len(blocks), err)
		}
		for i, b := range blocks {
			if b.Epoch != epoch || b.HOP != hops[i] {
				t.Fatalf("epoch %d block %d is (%d, %v)", epoch, i, b.Epoch, b.HOP)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsWhileWriting: a reader — the query API beside a running
// pipeline — sees the committed state grow monotonically while seals
// and reports are handed over from another goroutine, and never a
// report whose epoch is not sealed.
func TestReadsWhileWriting(t *testing.T) {
	s, _, err := Open("", Options{FS: NewMemFS(), AutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for epoch := uint64(0); epoch < epochs; epoch++ {
			for _, hop := range []receipt.HOPID{0, 1} {
				samples, aggs := testReceipts(epoch, hop)
				if err := s.Append(epoch, hop, samples, aggs); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Seal(epoch); err != nil {
				t.Error(err)
				return
			}
			if epoch > 0 {
				if err := s.PutReport(epoch-1, []byte(`{}`)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var last uint64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		// Reports first: each must be of an epoch sealed by the later
		// read.
		reports := s.ReportEpochs()
		if n := uint64(len(s.SealedEpochs())); n < last {
			t.Fatalf("%d sealed epochs after %d", n, last)
		} else {
			last = n
		}
		for _, epoch := range reports {
			if epoch >= last {
				t.Fatalf("report of epoch %d with %d epochs sealed", epoch, last)
			}
			if _, err := s.Report(epoch); err != nil {
				t.Fatalf("Report(%d): %v", epoch, err)
			}
		}
		_ = s.StoreStats()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.SealedEpochs()); got != epochs {
		t.Fatalf("%d sealed epochs, want %d", got, epochs)
	}
}
