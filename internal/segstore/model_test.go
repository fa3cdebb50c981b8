package segstore

// The store against a reference model. Sequences of Append, Seal,
// PutReport, Close and crashes run on the store and on a model of a few
// maps, and after every step the two must agree: on each call's error
// class, on the sealed and reported epochs, and on every report's
// bytes. A crash arms FaultFS with a budget of k mutating operations;
// the call that trips it kills the process, and the next Open over the
// surviving bytes must land on one of the worlds the model allows for
// the one call that was in flight. The sweeps in crashpoint_test.go
// crash one fixed workload everywhere; this crashes many workloads
// somewhere, with retention and out-of-order seals among them.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"vpm/internal/receipt"
)

const (
	modelEpochs = 6       // epochs an op can name
	modelBudget = 1 << 30 // a FaultFS budget no sequence exhausts
)

// storeModel is the reference: what the store's contract says it holds.
type storeModel struct {
	retention   uint64
	autoCompact bool
	sealed      map[uint64]bool   // committed, not retired
	open        map[uint64]bool   // appended to, not sealed
	reports     map[uint64]string // the last PutReport that returned nil, per sealed epoch
	last        uint64            // the newest committed seal, when hasLast
	hasLast     bool
}

func (m *storeModel) clone() *storeModel {
	c := *m
	c.sealed, c.open, c.reports = maps.Clone(m.sealed), maps.Clone(m.open), maps.Clone(m.reports)
	return &c
}

// writable is what Append and Seal owe for epoch: ErrEpochSealed when
// it is sealed or at or below the horizon retention retires through.
func (m *storeModel) writable(epoch uint64) error {
	if m.sealed[epoch] || m.autoCompact && m.retention > 0 && m.hasLast && epoch+m.retention <= m.last {
		return ErrEpochSealed
	}
	return nil
}

// reportable is what PutReport owes for epoch.
func (m *storeModel) reportable(epoch uint64) error {
	if !m.sealed[epoch] {
		return ErrNotSealed
	}
	return nil
}

// commit records epoch's seal and, when retain is set, the retention
// pass that follows it: every epoch R or more behind the newest seal
// goes, with its report.
func (m *storeModel) commit(epoch uint64, retain bool) {
	m.sealed[epoch] = true
	delete(m.open, epoch)
	if !m.hasLast || epoch > m.last {
		m.last, m.hasLast = epoch, true
	}
	if !retain || !m.autoCompact || m.retention == 0 {
		return
	}
	for e := range m.sealed {
		if e+m.retention <= m.last {
			delete(m.sealed, e)
			delete(m.reports, e)
		}
	}
}

// inFlight is the call a crash interrupted, when its outcome is open: a
// seal handed to the writer, or a report being written.
type inFlight struct {
	seal   *uint64
	report *uint64
	data   string
}

// modelRun drives one sequence on a store over mem and on the model.
type modelRun struct {
	t     testing.TB
	m     *storeModel
	mem   *MemFS
	fault *FaultFS
	s     *Store
	trace []string
	seen  modelSeen
}

// modelSeen counts what a sequence's crashes exercised, so the grid
// can fail when it checks nothing.
type modelSeen struct {
	crashes      int // recoveries after a crash
	sealsLanded  int // seals in flight that recovery found committed
	reportsTaken int // reports in flight that recovery found whole
}

func (r *modelRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s\nafter: %s", fmt.Sprintf(format, args...), strings.Join(r.trace, "; "))
}

// runStoreModel runs ops, two bytes each, on a fresh store with the
// given retention.
func runStoreModel(t testing.TB, retention int, autoCompact bool, ops []byte) modelSeen {
	t.Helper()
	r := &modelRun{t: t, mem: NewMemFS(), m: &storeModel{
		retention: uint64(retention), autoCompact: autoCompact,
		sealed: map[uint64]bool{}, open: map[uint64]bool{}, reports: map[uint64]string{},
	}}
	r.fault = NewFaultFS(r.mem, modelBudget)
	r.boot()
	defer func() { r.s.Close() }()
	for i := 0; i+1 < len(ops); i += 2 {
		r.do(ops[i], ops[i+1])
	}
	return r.seen
}

// boot opens the store over r.fault and, when a crash cuts that Open
// short too, again over a fresh FaultFS. clean reports whether the
// first Open succeeded.
func (r *modelRun) boot() (stats RecoveryStats, clean bool) {
	r.t.Helper()
	opts := Options{FS: r.fault, DiskRetention: int(r.m.retention), AutoCompact: r.m.autoCompact}
	s, stats, err := Open("", opts)
	clean = err == nil
	if errors.Is(err, ErrInjectedFault) {
		r.trace = append(r.trace, "crash in Open")
		r.fault = NewFaultFS(r.mem, modelBudget)
		opts.FS = r.fault
		s, stats, err = Open("", opts)
	}
	if err != nil {
		r.fatalf("Open: %v", err)
	}
	r.s = s
	return stats, clean
}

// do applies one op to the store and the model and checks that they
// agree.
func (r *modelRun) do(kind, arg byte) {
	r.t.Helper()
	epoch := uint64(arg % modelEpochs)
	switch kind % 8 {
	case 0, 1, 2:
		hop := receipt.HOPID(arg / modelEpochs % 3)
		r.trace = append(r.trace, fmt.Sprintf("Append(%d,%d)", epoch, hop))
		samples, aggs := testReceipts(epoch, hop)
		err := r.s.Append(epoch, hop, samples, aggs)
		if r.crashed(err, inFlight{}) {
			return
		}
		r.expect(err, r.m.writable(epoch))
		if err == nil {
			r.m.open[epoch] = true
		}
	case 3, 4:
		// Seal, then the wait for its commit that PutReport would make.
		r.trace = append(r.trace, fmt.Sprintf("Seal(%d)", epoch))
		want := r.m.writable(epoch)
		err := r.s.Seal(epoch)
		var in inFlight
		if err == nil {
			in.seal = &epoch
			err = drain(r.s)
		}
		if r.crashed(err, in) {
			return
		}
		r.expect(err, want)
		if err == nil {
			r.m.commit(epoch, true)
		}
	case 5, 6:
		data := fmt.Sprintf(`{"epoch":%d,"v":%d}`, epoch, arg/modelEpochs)
		r.trace = append(r.trace, fmt.Sprintf("PutReport(%d,v%d)", epoch, arg/modelEpochs))
		err := r.s.PutReport(epoch, []byte(data))
		if r.crashed(err, inFlight{report: &epoch, data: data}) {
			return
		}
		r.expect(err, r.m.reportable(epoch))
		if err == nil {
			r.m.reports[epoch] = data
		}
	case 7:
		if arg%2 == 1 {
			budget := int(arg / 2 % 20)
			r.trace = append(r.trace, fmt.Sprintf("crash after %d ops", budget))
			r.fault.mu.Lock()
			r.fault.remaining = budget
			r.fault.mu.Unlock()
			break
		}
		r.trace = append(r.trace, "Close")
		err := r.s.Close()
		if r.crashed(err, inFlight{}) {
			return
		}
		r.expect(err, nil)
		stats, clean := r.boot()
		if want := r.inFlightPartials(nil); stats.PartialSegments > want || clean && stats.PartialSegments != want {
			r.fatalf("Open after Close counted %d partial segments, want %d (%s)", stats.PartialSegments, want, stats)
		}
		r.m.open = map[uint64]bool{}
	}
	r.check()
}

// expect holds a call's error to the model's class.
func (r *modelRun) expect(err, want error) {
	r.t.Helper()
	if (err == nil) != (want == nil) || want != nil && !errors.Is(err, want) {
		r.fatalf("returned %v, model says %v", err, want)
	}
}

// crashed reports whether err is the injected fault. If it is, the
// process is gone: the store's writer stops at the failure, the store
// is opened again over what landed, and the model takes whichever of
// the worlds in allows the recovered store is in.
func (r *modelRun) crashed(err error, in inFlight) bool {
	r.t.Helper()
	if !errors.Is(err, ErrInjectedFault) {
		return false
	}
	r.trace = append(r.trace, "crashed")
	r.seen.crashes++
	r.s.mu.Lock()
	r.s.idleLocked()
	r.s.mu.Unlock()
	r.fault = NewFaultFS(r.mem, modelBudget)
	stats, _ := r.boot()

	// A seal in flight committed or not, and if it did, its retention
	// pass ran or not: one retire record decides.
	worlds := []*storeModel{r.m}
	if in.seal != nil {
		committed, retained := r.m.clone(), r.m.clone()
		committed.commit(*in.seal, false)
		retained.commit(*in.seal, true)
		worlds = append(worlds, committed, retained)
	}
	got := r.s.SealedEpochs()
	i := slices.IndexFunc(worlds, func(w *storeModel) bool { return slices.Equal(sortedKeys(w.sealed), got) })
	if i < 0 {
		var allowed []string
		for _, w := range worlds {
			allowed = append(allowed, fmt.Sprint(sortedKeys(w.sealed)))
		}
		r.fatalf("recovered sealed epochs %v, the model allows %s", got, strings.Join(allowed, " or "))
	}
	r.m = worlds[i]
	if i > 0 {
		r.seen.sealsLanded++
	}
	// A report in flight landed whole or not at all.
	if in.report != nil && r.m.sealed[*in.report] {
		if rep, err := r.s.Report(*in.report); err == nil && string(rep) == in.data {
			r.m.reports[*in.report] = in.data
			r.seen.reportsTaken++
		}
	}
	if want := r.inFlightPartials(in.seal); stats.PartialSegments > want {
		r.fatalf("recovery counted %d partial segments, at most %d epochs were in flight (%s)", stats.PartialSegments, want, stats)
	}
	r.m.open = map[uint64]bool{}
	r.check()
	return true
}

// inFlightPartials counts the epochs whose segment a reopen may find
// uncommitted and newer than the last seal: the open epochs, and seal
// when it did not commit.
func (r *modelRun) inFlightPartials(seal *uint64) int {
	newer := func(e uint64) bool { return !r.m.hasLast || e > r.m.last }
	n := 0
	for e := range r.m.open {
		if newer(e) {
			n++
		}
	}
	if seal != nil && !r.m.sealed[*seal] && !r.m.open[*seal] && newer(*seal) {
		n++
	}
	return n
}

// check holds the store's sealed epochs, reported epochs and report
// bytes to the model's.
func (r *modelRun) check() {
	r.t.Helper()
	sealed := r.s.SealedEpochs()
	if want := sortedKeys(r.m.sealed); !slices.Equal(sealed, want) {
		r.fatalf("SealedEpochs = %v, model has %v", sealed, want)
	}
	reported := r.s.ReportEpochs()
	if want := sortedKeys(r.m.reports); !slices.Equal(reported, want) {
		r.fatalf("ReportEpochs = %v, model has %v", reported, want)
	}
	for _, e := range reported {
		if !r.m.sealed[e] {
			r.fatalf("report of epoch %d, which is not sealed (%v)", e, sealed)
		}
		if rep, err := r.s.Report(e); err != nil || string(rep) != r.m.reports[e] {
			r.fatalf("Report(%d) = %q, %v; want %q", e, rep, err, r.m.reports[e])
		}
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	return slices.Sorted(maps.Keys(m))
}

// TestStoreModelGrid runs seeded random sequences under every
// retention from 0 to 3, with and without AutoCompact.
func TestStoreModelGrid(t *testing.T) {
	const seqs, ops = 128, 64
	var seen modelSeen
	for retention := range 4 {
		for _, auto := range []bool{false, true} {
			t.Run(fmt.Sprintf("retention=%d,auto=%v", retention, auto), func(t *testing.T) {
				for seq := range uint64(seqs) {
					rng := rand.New(rand.NewPCG(seq, uint64(retention)))
					buf := make([]byte, 2*ops)
					for i := range buf {
						buf[i] = byte(rng.Uint32())
					}
					got := runStoreModel(t, retention, auto, buf)
					seen.crashes += got.crashes
					seen.sealsLanded += got.sealsLanded
					seen.reportsTaken += got.reportsTaken
				}
			})
		}
	}
	t.Logf("%+v", seen)
	if seen.crashes == 0 || seen.sealsLanded == 0 || seen.reportsTaken == 0 {
		t.Fatalf("the grid's crashes exercised %+v: some kind of in-flight call never crashed", seen)
	}
}

// FuzzStoreModel drives the same harness from fuzz bytes: the first
// picks the options, each pair after it one op.
func FuzzStoreModel(f *testing.F) {
	f.Add([]byte{0x00, 0, 1, 3, 1, 5, 1, 7, 0, 5, 1})
	f.Add([]byte{0x07, 0, 0, 3, 0, 0, 1, 3, 1, 0, 2, 3, 2, 5, 2, 0, 3, 3, 3, 5, 3})
	f.Add([]byte{0x05, 0, 0, 3, 0, 7, 7, 5, 0, 3, 1, 7, 2, 5, 1})
	f.Add([]byte{0x06, 0, 0, 3, 0, 5, 0, 7, 5, 5, 6, 0, 1, 3, 1, 7, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 257 {
			return
		}
		runStoreModel(t, int(data[0]%4), data[0]&4 != 0, data[1:])
	})
}
