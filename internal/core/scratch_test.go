package core

import (
	"bytes"
	"testing"

	"vpm/internal/netsim"
	"vpm/internal/trace"
)

// TestRetainedPairsNeverAliasScratch: a report keeps loss pairs of its
// own, never the verifier's join scratch. Epoch N's report encodes to
// the same bytes after the same RollingVerifier has gone on to verify
// epoch N+1, over a Clos stream whose reports keep joined pairs and
// whose domains reorder packets around cuts, so some kept pairs carry
// the AggTrans windows the patch-up migrated packets by.
func TestRetainedPairsNeverAliasScratch(t *testing.T) {
	keys := netsim.TopoKeys(6)
	topo := netsim.ClosTopology(91, 2, 2, keys)
	tc := topoTraceConfig(keys, 8000, 3e8)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, rec := runEpochTopo(t, topo, tc, pkts, meshDeployConfig(), int64(5e7))
	s := streamOf(rec)
	rv := NewRollingVerifier(Layout{}, dep.VerifierConfig(), s.window(t), nil, 0.95)
	rv.SetKeyLayouts(dep.KeyLayouts())
	var prev EpochReport
	var prevBytes []byte
	kept, migrated := 0, 0
	for e := range s.epochs {
		rep, err := rv.VerifyEpoch(EpochID(e))
		if err != nil {
			t.Fatal(err)
		}
		if e > 0 {
			again, err := AppendEpochReport(nil, &prev)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, prevBytes) {
				t.Fatalf("epoch %d's report changed when epoch %d was verified\nbefore %s\n after %s", e-1, e, prevBytes, again)
			}
		}
		if prevBytes, err = AppendEpochReport(nil, &rep); err != nil {
			t.Fatal(err)
		}
		prev = rep
		for _, kr := range rep.Keys {
			for _, dr := range kr.Domains {
				if len(dr.Loss.Pairs) == 0 {
					continue
				}
				kept++
				if dr.Loss.Migrations > 0 {
					migrated++
				}
			}
		}
	}
	if kept == 0 || migrated == 0 {
		t.Fatalf("stream not exercised: %d domain reports kept pairs, %d of them after migrations", kept, migrated)
	}
	t.Logf("%d domain reports kept pairs, %d after migrations", kept, migrated)
}
