// Package delaymodel generates per-packet delays for traffic crossing
// a congested network segment. It replaces the NS-2 simulations the
// paper used to "create realistic congestion scenarios and generate
// the sequence of delay values that our packet sequence would
// encounter" (§7.2): a droptail bottleneck queue is shared by the
// foreground path and background cross-traffic — bursty on/off UDP
// flows and long-lived AIMD (TCP-like) flows — and each foreground
// packet's delay is its queueing plus transmission plus propagation
// time.
//
// The fluid-queue formulation tracks the bottleneck backlog exactly
// between foreground arrivals: background flows contribute arrival
// volume over each interval, the queue drains at link capacity, and
// the backlog is clamped to the buffer size (droptail). This produces
// the paper's qualitative target — delay "spikes" of high variance at
// sub-second time scales (§2.2) — with fully deterministic output.
package delaymodel

import (
	"fmt"

	"vpm/internal/stats"
)

// OnOffUDP describes one bursty constant-rate UDP background flow with
// exponentially distributed ON and OFF period durations.
type OnOffUDP struct {
	// RateBps is the sending rate while ON, in bits per second.
	RateBps float64
	// MeanOnNS and MeanOffNS are the mean period durations.
	MeanOnNS, MeanOffNS float64
}

// AIMD describes one long-lived TCP-like background flow: its rate
// grows linearly (additive increase) and halves whenever the
// bottleneck buffer overflows (multiplicative decrease).
type AIMD struct {
	// RTTNS is the flow's round-trip time, which sets the additive
	// increase rate (one MSS per RTT).
	RTTNS float64
	// StartBps is the initial sending rate.
	StartBps float64
}

// Config describes the congestion scenario at one bottleneck.
type Config struct {
	// CapacityBps is the bottleneck link rate in bits per second.
	CapacityBps float64
	// QueueBytes is the droptail buffer size. Backlog above it is
	// discarded (background loss; foreground loss is modeled
	// separately with lossmodel, as in the paper).
	QueueBytes float64
	// PropagationNS is the fixed propagation delay added to every
	// foreground packet.
	PropagationNS int64
	// UDP and TCP list the background flows.
	UDP []OnOffUDP
	TCP []AIMD
	// Seed drives all randomness in the background processes.
	Seed uint64
}

// BurstyUDPScenario reproduces the configuration behind Figure 2:
// "congestion is caused by a bursty, high-rate UDP flow" competing
// with the foreground path at a bottleneck. Capacity 1 Gbps, 2.5 MB
// buffer (20 ms worth), one UDP flow bursting at 900 Mbps with 40 ms
// mean ON and 80 ms mean OFF periods.
func BurstyUDPScenario(seed uint64) Config {
	return Config{
		CapacityBps:   1e9,
		QueueBytes:    2.5e6,
		PropagationNS: 1_000_000, // 1 ms
		UDP: []OnOffUDP{
			{RateBps: 9e8, MeanOnNS: 4e7, MeanOffNS: 8e7},
		},
		Seed: seed,
	}
}

// udpState is the evolving state of one on/off flow.
type udpState struct {
	spec     OnOffUDP
	on       bool
	switchAt int64 // time of next state switch
	rng      *stats.RNG
}

// tcpState is the evolving state of one AIMD flow.
type tcpState struct {
	spec    AIMD
	rateBps float64
}

// Queue is the bottleneck simulator. Feed it foreground packet
// arrivals in non-decreasing time order with DelayOf; it returns each
// packet's delay through the congested segment.
type Queue struct {
	cfg          Config
	backlogBytes float64
	now          int64
	udp          []*udpState
	tcp          []*tcpState
	overflowed   bool // buffer overflowed during the last advance
	drops        float64
}

// New validates cfg and builds the bottleneck simulator.
func New(cfg Config) (*Queue, error) {
	if cfg.CapacityBps <= 0 {
		return nil, fmt.Errorf("delaymodel: non-positive capacity")
	}
	if cfg.QueueBytes <= 0 {
		return nil, fmt.Errorf("delaymodel: non-positive queue size")
	}
	root := stats.NewRNG(cfg.Seed)
	q := &Queue{cfg: cfg}
	for _, spec := range cfg.UDP {
		if spec.RateBps < 0 || spec.MeanOnNS <= 0 || spec.MeanOffNS <= 0 {
			return nil, fmt.Errorf("delaymodel: invalid UDP flow %+v", spec)
		}
		s := &udpState{spec: spec, rng: root.Split()}
		// Start OFF; first switch is exponentially distributed.
		s.switchAt = int64(s.rng.ExpFloat64() * spec.MeanOffNS)
		q.udp = append(q.udp, s)
	}
	for _, spec := range cfg.TCP {
		if spec.RTTNS <= 0 || spec.StartBps < 0 {
			return nil, fmt.Errorf("delaymodel: invalid TCP flow %+v", spec)
		}
		q.tcp = append(q.tcp, &tcpState{spec: spec, rateBps: spec.StartBps})
	}
	return q, nil
}

// advance integrates background arrivals and draining from q.now to t.
func (q *Queue) advance(t int64) {
	for q.now < t {
		// Step to the next UDP state switch or to t, whichever first.
		step := t
		for _, u := range q.udp {
			if u.switchAt > q.now && u.switchAt < step {
				step = u.switchAt
			}
		}
		dt := float64(step-q.now) / 1e9 // seconds
		// Background arrival rate over this interval.
		var bg float64 // bytes/sec
		for _, u := range q.udp {
			if u.on {
				bg += u.spec.RateBps / 8
			}
		}
		for _, tc := range q.tcp {
			bg += tc.rateBps / 8
		}
		drain := q.cfg.CapacityBps / 8
		q.backlogBytes += (bg - drain) * dt
		if q.backlogBytes < 0 {
			q.backlogBytes = 0
		}
		if q.backlogBytes > q.cfg.QueueBytes {
			q.drops += q.backlogBytes - q.cfg.QueueBytes
			q.backlogBytes = q.cfg.QueueBytes
			q.overflowed = true
		}
		// AIMD growth over the interval; decrease on overflow.
		for _, tc := range q.tcp {
			if q.overflowed {
				tc.rateBps /= 2
			} else {
				// One 1500-byte MSS per RTT of additive increase.
				tc.rateBps += 1500 * 8 / (tc.spec.RTTNS / 1e9) * dt
			}
			if tc.rateBps > q.cfg.CapacityBps {
				tc.rateBps = q.cfg.CapacityBps
			}
		}
		q.overflowed = false
		// Flip any UDP flows whose switch time has arrived.
		for _, u := range q.udp {
			if u.switchAt <= step {
				u.on = !u.on
				mean := u.spec.MeanOffNS
				if u.on {
					mean = u.spec.MeanOnNS
				}
				u.switchAt = step + int64(u.rng.ExpFloat64()*mean) + 1
			}
		}
		q.now = step
	}
}

// DelayOf returns the delay, in nanoseconds, experienced by a
// foreground packet of pktBytes arriving at the bottleneck at
// absolute time tNS. Arrival times must be non-decreasing. The
// packet's own bytes join the backlog.
func (q *Queue) DelayOf(tNS int64, pktBytes int) int64 {
	if tNS > q.now {
		q.advance(tNS)
	}
	// The packet waits for the current backlog plus its own
	// transmission, then propagates.
	drain := q.cfg.CapacityBps / 8
	queueing := (q.backlogBytes + float64(pktBytes)) / drain * 1e9
	q.backlogBytes += float64(pktBytes)
	if q.backlogBytes > q.cfg.QueueBytes {
		// Foreground loss is modeled separately (lossmodel); clamp,
		// but account the overflow as droptail discard volume.
		q.drops += q.backlogBytes - q.cfg.QueueBytes
		q.backlogBytes = q.cfg.QueueBytes
		q.overflowed = true
	}
	return int64(queueing) + q.cfg.PropagationNS
}
