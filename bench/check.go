package main

import (
	"fmt"

	"vpm/internal/core"
	"vpm/internal/receipt"
)

// The output check. Every miss is recorded as one failed verdict, so
// a run can be wrong without being fatal, and `failed` says how wrong.

// maxFailuresKept bounds the messages a run carries; the counts keep
// growing past it.
const maxFailuresKept = 20

func (h *harness) fail(format string, args ...any) {
	h.run.failed++
	h.note(format, args...)
}

// note keeps a message for the report without failing anything.
func (h *harness) note(format string, args ...any) {
	if len(h.run.failures) < maxFailuresKept {
		h.run.failures = append(h.run.failures, fmt.Sprintf(format, args...))
	}
}

// guiltyIndex returns which expected blame site a link is, or -1 for
// an honest link.
func (h *harness) guiltyIndex(up, down receipt.HOPID) int {
	for i, g := range h.w.guilty {
		if g == [2]receipt.HOPID{up, down} {
			return i
		}
	}
	return -1
}

// falsePositiveBudget is the share of epochs — and falsePositiveFloor
// the number of epochs, whichever is larger — that may carry a
// violation on a link the world made honest before the check fails. It is not zero because the system under test is not clean:
// on the honest Fig1 path at 100 kpps, about one epoch in 150 reports
// dozens of symmetric missing-receipt violations on one or two links
// (cmd/vpm-node -epochs 300 -rate 100000 -seed 1 shows the same, at
// epochs 172 and 175; see README.md), and on the honest mesh about one
// run in thirty has one aggregate counted 95 upstream and 96
// downstream, which the ±1-epoch evidence window shows in three
// consecutive reports. The benchmark reports them as
// core.verify.false_positives and fails only on more than the budget.
const (
	falsePositiveBudget = 0.05
	falsePositiveFloor  = 3
)

// checkReport judges one epoch's verdicts: a violation, or a blame, is
// a false positive unless it sits on a link the workload made guilty.
func (h *harness) checkReport(rep core.EpochReport) {
	h.run.attempted += int64(max(len(rep.Keys), 1))
	var sites uint
	before := h.run.falsePositives
	for _, kr := range rep.Keys {
		clean := true
		for _, lv := range kr.Links {
			if lv.Consistent() {
				continue
			}
			gi := h.guiltyIndex(lv.Up, lv.Down)
			if gi < 0 {
				clean = false
				h.note("epoch %d key %v: %d violations on honest link %v-%v (%d matched, %d/%d missing down/up), e.g. %v",
					rep.Epoch, kr.Key, len(lv.Violations), lv.Up, lv.Down, lv.MatchedSamples, lv.MissingDown, lv.MissingUp, lv.Violations[0])
				continue
			}
			sites |= 1 << gi
		}
		for _, bl := range kr.Blames {
			if len(bl.HOPs) != 2 || h.guiltyIndex(bl.HOPs[0], bl.HOPs[1]) < 0 {
				clean = false
				h.note("epoch %d key %v: misplaced blame %v", rep.Epoch, kr.Key, bl)
			}
		}
		if !clean {
			h.run.falsePositives++
		}
	}
	if h.run.falsePositives > before {
		h.run.falsePositiveEpochs++
	}
	h.blamed[rep.Epoch] = sites
}

// checkRun judges the pass as a whole, after the terminal flush.
func (h *harness) checkRun() {
	run := h.run
	if run.firstHOPPkts != run.sent {
		h.fail("conservation: %d packets sent, first-HOP aggregates count %d", run.sent, run.firstHOPPkts)
	}
	if float64(run.falsePositiveEpochs) > max(falsePositiveFloor, falsePositiveBudget*float64(run.sealedEpochs)) {
		run.failed += run.falsePositives
		h.note("%d of %d epochs blame honest links, over the budget", run.falsePositiveEpochs, run.sealedEpochs)
	}
	for _, e := range h.win.UnverifiedEpochs() {
		h.fail("epoch %d left unverified", e)
	}
	// Every epoch that carried a full interval of faulty traffic must
	// name every guilty site. Epoch 0 (cold start) and the epochs after
	// the last send (spill only) are exempt.
	want := uint(1)<<len(h.w.guilty) - 1
	for e := core.EpochID(1); want != 0 && int(e) < run.epochs+warmupEpochs-1; e++ {
		if got, ok := h.blamed[e]; !ok || got != want {
			h.fail("epoch %d: blamed sites %03b, want %03b", e, got, want)
		}
	}
	if want != 0 && run.seqVerdicts == 0 {
		h.fail("sequential arm armed on a faulty world but reached no verdict")
	}
}
