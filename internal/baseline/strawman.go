// Package baseline implements the three strawman protocols of paper §3
// that motivate VPM's design, so the experiments can compare them head
// to head on the same simulated substrate:
//
//   - Strawman (§3.1): a receipt for every packet. Computable and
//     verifiable, but the per-packet state and reporting bandwidth are
//     not tunable.
//   - Trajectory Sampling ++ (§3.2): hash-sampled receipts. Tunable and
//     computable, but the sampling predicate is evaluable at forwarding
//     time, so domains can detect measured packets and treat them
//     preferentially (sampling bias).
//   - Difference Aggregator ++ (§3.3): per-aggregate packet counts and
//     timestamp sums (after the Lossy Difference Aggregator). Tunable,
//     but reordering near cutting points breaks aggregate alignment,
//     and only loss and average delay — no delay quantiles — are
//     computable. The experiments run only the first two; this one
//     lives in the package's tests (dapp_test.go), which show the
//     failure that motivates VPM's AggTrans window.
package baseline

import "vpm/internal/packet"

// StrawmanRecord is one per-packet receipt: the §3.1 strawman keeps a
// digest and timestamp for every single packet.
type StrawmanRecord struct {
	PktID  uint64
	TimeNS int64
}

// Strawman is one HOP's §3.1 monitor: a receipt per packet. It
// implements netsim.Observer.
type Strawman struct {
	Records []StrawmanRecord
}

// Observe appends a per-packet receipt.
func (s *Strawman) Observe(_ *packet.Packet, digest uint64, tNS int64) {
	s.Records = append(s.Records, StrawmanRecord{PktID: digest, TimeNS: tNS})
}

// StrawmanCompare computes exact loss and per-packet delays between
// two strawman monitors: every packet in up is matched in down by
// digest; unmatched packets are exact losses.
func StrawmanCompare(up, down *Strawman) (lost int, delaysNS []float64) {
	downTime := make(map[uint64]int64, len(down.Records))
	for _, r := range down.Records {
		downTime[r.PktID] = r.TimeNS
	}
	for _, r := range up.Records {
		td, ok := downTime[r.PktID]
		if !ok {
			lost++
			continue
		}
		delaysNS = append(delaysNS, float64(td-r.TimeNS))
	}
	return lost, delaysNS
}
