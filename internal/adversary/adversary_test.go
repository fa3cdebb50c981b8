package adversary

import (
	"testing"

	"vpm/internal/core"
	"vpm/internal/receipt"
)

// TestChainedSinksCorruptInWrapOrder: wrapping a sink twice hands the
// inner adversary the outer one's output, which is how a colluder taps
// the liar's already-forged egress (§3.1).
func TestChainedSinksCorruptInWrapOrder(t *testing.T) {
	got := map[receipt.HOPID][]receipt.SampleRecord{}
	final := func(hop receipt.HOPID, _ core.EpochID, samples []receipt.SampleReceipt, _ []receipt.AggReceipt) {
		got[hop] = samples[0].Samples
	}
	keep := func(p receipt.PathID) receipt.PathID { return p }
	fab := &Fabricator{Ingress: 4, Egress: 5, RewritePath: keep, ClaimedDelayNS: 100}
	col := &Colluder{LiarEgress: 5, OwnIngress: 6, RewritePath: keep, LinkDelayNS: 10}
	sink := NewAdversarySink(NewAdversarySink(final, col), fab)
	seal := func(hop receipt.HOPID, times ...int64) {
		var r receipt.SampleReceipt
		for i, tNS := range times {
			r.Samples = append(r.Samples, receipt.SampleRecord{PktID: uint64(i + 1), TimeNS: tNS})
		}
		sink(hop, 0, []receipt.SampleReceipt{r}, nil)
	}
	seal(4, 1000, 2000) // two packets enter X
	seal(5, 1050)       // X delivers one
	seal(6, 1060)       // N receives it
	if recs := got[5]; len(recs) != 2 || recs[1].TimeNS != 2100 {
		t.Fatalf("liar's egress %+v, want both packets forged 100 ns after ingress", recs)
	}
	if recs := got[6]; len(recs) != 2 || recs[0].TimeNS != 1110 || recs[1].TimeNS != 2110 {
		t.Fatalf("colluder's ingress %+v, want the forged egress echoed 10 ns later", recs)
	}
}
