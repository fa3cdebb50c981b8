package engine_test

import (
	"context"
	"testing"

	"vpm/internal/core"
	"vpm/internal/engine"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// TestCutTimestampTieIsNotALie replays the smallest stream that shows
// a false count-mismatch found on the Clos mesh (clos-zipf, seeds 38
// and 65): at one end of an honest link a cutting point and a packet
// carry the same timestamp, the packet after the cut, and the other end
// sees that packet before the cut. A cut's AggTrans window takes the
// packets within J before the cut and those strictly later than it, so
// the tying end's window holds neither the packet nor anything saying
// where it went; the patch-up cannot migrate it, and the two joined
// pairs around the cut each differ by one packet, in opposite
// directions. Every ±1 view around the cut judged both, so one tie
// blamed the link three epochs running.
//
// The stream is one key over a two-domain path, both HOPs fed through
// the engine's Sim seam from a recorded list: the downstream HOP sees
// every packet 1 ms after the upstream one, except around two cuts. At
// the first the upstream HOP ties (seed 38's shape: downstream counts
// one more before the cut), at the second the downstream HOP does
// (seed 65's: upstream counts one more). As at those seeds, each cut
// has a cut of its epoch before it and two after it, so every view
// that judges one of its pairs judges the other too. The link must come
// out clean in every epoch.
func TestCutTimestampTieIsNotALie(t *testing.T) {
	const (
		intervalNS = int64(50_000_000)
		epochs     = 4
		gapNS      = int64(20_000)
		linkNS     = int64(1_000_000)
	)
	key := netsim.WideKeys(1)[0]
	table := packet.NewTable([]packet.Prefix{key.Src, key.Dst})
	dc := core.DefaultDeployConfig()
	dc.MarkerRate, dc.Default.AggRate = 0.01, 0.005 // the Clos bench's rates
	dep, err := core.NewDeployment(netsim.LinearPath(3, 2), table, dc)
	if err != nil {
		t.Fatal(err)
	}
	hops := dep.HOPs()
	if len(hops) != 2 {
		t.Fatalf("a two-domain path has HOPs %v, want one link's two ends", hops)
	}
	delta := hashing.ThresholdForRate(dc.Default.AggRate)

	pkt := packet.Packet{Src: key.Src.Addr, Dst: key.Dst.Addr}
	perEpoch := int(intervalNS / gapNS)
	n := epochs * perEpoch
	up := make([]netsim.Observation, n)
	for i := range up {
		up[i] = netsim.Observation{Pkt: &pkt, Digest: hashing.Mix64(uint64(i) + 1), TimeNS: int64(i) * gapNS}
	}
	isCut := func(i int) bool { return up[i].Digest > delta }
	// tieCut returns a cut of the epoch with a cut of the epoch before
	// it and two after it, between two packets that are not cuts.
	tieCut := func(epoch int) int {
		var cuts []int
		for i := epoch * perEpoch; i < (epoch+1)*perEpoch; i++ {
			if isCut(i) {
				cuts = append(cuts, i)
			}
		}
		for k := 1; k+2 < len(cuts); k++ {
			if c := cuts[k]; !isCut(c-1) && !isCut(c+1) {
				return c
			}
		}
		t.Fatalf("epoch %d has no cut with a cut before it and two after it", epoch)
		return 0
	}
	down := make([]netsim.Observation, n)
	for i := range up {
		down[i] = up[i]
		down[i].TimeNS += linkNS
	}
	// Upstream tie: the packet after the cut takes the cut's time
	// upstream and comes just before the cut downstream.
	c := tieCut(1)
	up[c+1].TimeNS = up[c].TimeNS
	down[c], down[c+1] = down[c+1], down[c]
	down[c].TimeNS = down[c+1].TimeNS - gapNS/5
	// Downstream tie: the packet before the cut comes right after it,
	// at its time, downstream.
	c = tieCut(2)
	down[c-1], down[c] = down[c], down[c-1]
	down[c-1].TimeNS = down[c-2].TimeNS + gapNS/5
	down[c].TimeNS = down[c-1].TimeNS

	streams := map[receipt.HOPID][]netsim.Observation{hops[0]: up, hops[1]: down}
	sim := func(_ []packet.Packet, obs map[receipt.HOPID]netsim.Observer, horizonNS int64) error {
		for h, s := range streams {
			k := 0
			for k < len(s) && s[k].TimeNS < horizonNS {
				k++
			}
			if k > 0 {
				netsim.Deliver(obs[h], s[:k])
			}
			streams[h] = s[k:]
		}
		return nil
	}
	segment := 0
	src := func() ([]packet.Packet, int64, bool) {
		if segment == epochs {
			return nil, 0, false
		}
		segment++
		return nil, int64(segment) * intervalNS, true
	}

	ver, err := engine.NewVerify(engine.Store{HOPs: hops, Retention: 2},
		engine.Checks{Config: dep.VerifierConfig(), Layout: dep.Layout()})
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.EpochReport
	ver.OnEpoch = func(rep core.EpochReport, _ core.WindowStats) { reports = append(reports, rep) }
	col, err := engine.NewCollect(dep, hops, intervalNS, 0, ver.Window.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background(), src, sim, ver); err != nil {
		t.Fatal(err)
	}
	if len(reports) != int(col.Terminal)+1 || len(ver.Findings) != 0 {
		t.Fatalf("%d reports for terminal epoch %d, %d findings", len(reports), col.Terminal, len(ver.Findings))
	}
	for _, rep := range reports {
		for _, kr := range rep.Keys {
			for _, lv := range kr.Links {
				for _, v := range lv.Violations {
					t.Errorf("epoch %d: honest link %v-%v: %v %s", rep.Epoch, lv.Up, lv.Down, v.Kind, v.Detail)
				}
			}
		}
	}
}
