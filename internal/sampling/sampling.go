// Package sampling implements the paper's Algorithm 1 (DelaySample):
// bias-resistant, tunable delay sampling.
//
// A HOP buffers 〈PktID, Time〉 state for every packet it observes on a
// path, but only until the next marker packet arrives. A packet is a
// marker when its digest exceeds the system-wide marker threshold µ.
// The marker's digest then keys the sampling decision for every
// buffered packet: q is sampled iff SampleFcn(Digest(q), Digest(p)) > σ,
// where σ is the locally chosen sampling threshold. The marker itself
// is always sampled.
//
// Because a domain learns whether a packet will be sampled only after
// it has forwarded it (the marker comes later), it cannot treat
// sampled packets preferentially (§5.1). Because the same inequality
// is evaluated everywhere, a HOP with a lower σ samples a superset of
// any HOP with a higher σ — different HOPs never sample partially
// overlapping sets (§5.2). Markers are a system-wide constant, so all
// HOPs agree on where sampling decisions happen (modulo marker loss,
// §5.3).
package sampling

import (
	"fmt"

	"vpm/internal/hashing"
	"vpm/internal/receipt"
)

// Config parameterizes a Sampler.
type Config struct {
	// MarkerRate is the system-wide marker frequency: the probability
	// that a packet's digest exceeds µ. The paper fixes this at
	// design time so that markers arrive every ten milliseconds or
	// so at backbone packet rates.
	MarkerRate float64
	// SampleRate is the locally tunable probability that SampleFcn
	// exceeds σ for a buffered packet. The overall fraction of
	// sampled packets is approximately SampleRate + MarkerRate (the
	// markers themselves are always sampled).
	SampleRate float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MarkerRate <= 0 || c.MarkerRate > 1 {
		return fmt.Errorf("sampling: marker rate %v outside (0,1]", c.MarkerRate)
	}
	if c.SampleRate < 0 || c.SampleRate > 1 {
		return fmt.Errorf("sampling: sample rate %v outside [0,1]", c.SampleRate)
	}
	return nil
}

// Sampler is the per-path delay-sampling state of one HOP: the
// temporary packet buffer of Algorithm 1 plus the accumulated samples
// of the receipt under construction, fed one packet at a time — the
// algorithm as the paper states it, and the reference the deployed
// collector (core.Collector, which runs Algorithms 1 and 2 together
// over one record buffer per path) is held to. Not safe for concurrent
// use.
type Sampler struct {
	mu    uint64 // marker threshold µ
	sigma uint64 // sampling threshold σ

	temp    []receipt.SampleRecord // TempBuffer: all packets since last marker
	samples []receipt.SampleRecord // samples accumulated since last Take

	// Accounting.
	observed      uint64
	markers       uint64
	sampled       uint64
	tempHighWater int
}

// New builds a Sampler. It panics on an invalid config (programmer
// error); use Config.Validate to check user input first.
func New(cfg Config) *Sampler {
	s := new(Sampler)
	s.Init(cfg)
	return s
}

// Init makes s a fresh Sampler for cfg, in place — for state that
// embeds a Sampler by value instead of holding one built by New. It
// panics on an invalid config, as New does.
func (s *Sampler) Init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*s = Sampler{
		mu:    hashing.ThresholdForRate(cfg.MarkerRate),
		sigma: hashing.ThresholdForRate(cfg.SampleRate),
	}
}

// Observe processes one packet observation (Algorithm 1): pktID is the
// packet's digest, tNS the HOP's observation timestamp.
//
//vpm:hotpath
func (s *Sampler) Observe(pktID uint64, tNS int64) {
	s.observed++
	if hashing.Exceeds(pktID, s.mu) {
		s.marker(pktID, tNS)
		return
	}
	s.temp = append(s.temp, receipt.SampleRecord{PktID: pktID, TimeNS: tNS})
}

// marker processes a marker packet: its digest keys the sampling
// decision for every buffered packet, then the buffer is emptied and
// the marker itself is sampled. The temp buffer only grows between
// markers, so recording its high-water mark here (just before the
// clear) equals checking after every append.
func (s *Sampler) marker(pktID uint64, tNS int64) {
	if len(s.temp) > s.tempHighWater {
		s.tempHighWater = len(s.temp)
	}
	s.markers++
	key, sigma := hashing.SampleKey(pktID), s.sigma
	for _, q := range s.temp {
		if hashing.Exceeds(hashing.SampleStep(q.PktID, key), sigma) {
			s.sampled++
			s.samples = append(s.samples, q)
		}
	}
	s.temp = s.temp[:0]
	s.sampled++
	s.samples = append(s.samples, receipt.SampleRecord{PktID: pktID, TimeNS: tNS})
}

// Take returns the samples accumulated since the previous Take and
// resets the accumulator. Ownership of the returned slice passes to
// the caller; the sampler starts a fresh one.
func (s *Sampler) Take() []receipt.SampleRecord {
	out := s.samples
	s.samples = nil
	return out
}

// TempHighWater returns the maximum temporary-buffer occupancy seen,
// in packets — the §7.1 memory-budget quantity.
func (s *Sampler) TempHighWater() int {
	if len(s.temp) > s.tempHighWater {
		return len(s.temp)
	}
	return s.tempHighWater
}
