package seqdetect

// The Engine multiplexes the per-(link, key) detectors of one rolling
// verifier: the core pipeline feeds it each epoch's evidence batches
// (in deterministic work order, from one goroutine) and closes the
// epoch with EndEpoch, which snapshots every detector's trajectory
// and emits a SeqVerdict for each detector that crossed its detection
// threshold during the epoch.
//
// Crossing points are recorded as global evidence indexes, so they
// are invariant under re-chunking of the evidence stream (the same
// packets fed in different batch sizes cross at the same item — a
// property test pins this). The fractional position of the crossing
// within its epoch's evidence — the "detected mid-epoch" fraction —
// is derived at EndEpoch from the epoch's total item count, which is
// equally chunking-invariant.

// Class identifies the evidence class a detector judges.
type Class uint8

// Evidence classes. The numbering is part of the SeqVerdict wire
// format; do not reorder.
const (
	// ClassLoss is suppression: packets the upstream HOP delivered
	// that the downstream HOP was expected to report but did not.
	ClassLoss Class = 1
	// ClassFabricate is the mirror direction: records the downstream
	// HOP claims that the upstream HOP never delivered.
	ClassFabricate Class = 2
	// ClassDelay is delay underreporting: the inter-HOP link delta
	// mean-shifted beyond the advertised reference.
	ClassDelay Class = 3
	// ClassBias is the marker-vs-σ-sample delay split of a domain.
	ClassBias Class = 4
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassLoss:
		return "loss"
	case ClassFabricate:
		return "fabricate"
	case ClassDelay:
		return "delay"
	case ClassBias:
		return "bias"
	}
	return "unknown"
}

// Scope names the path element one detector watches: an inter-domain
// link (Up, Down HOPs) of one traffic key, or a domain segment (Domain
// non-empty) for bias detectors.
type Scope struct {
	// Key is the traffic key's string form ("src->dst").
	Key string
	// Up and Down are the HOP ids delimiting the link or domain
	// segment.
	Up, Down uint32
	// Domain is the domain name for bias scopes, empty for links.
	Domain string
}

// Kind tags one evidence item.
type Kind uint8

// Evidence kinds.
const (
	// KindKeep is a Bernoulli trial without the lie-consistent
	// outcome: a claimed packet matched by the other end.
	KindKeep Kind = iota
	// KindDrop is a lie-consistent Bernoulli trial: a claimed packet
	// expected but missing at the other end.
	KindDrop
	// KindDelta carries a matched sample's link delta (ns) for the
	// delay detector.
	KindDelta
	// KindMarkerDelta carries a marker sample's domain delay (ns) for
	// the bias detector.
	KindMarkerDelta
	// KindOtherDelta carries a σ-sample (non-marker) domain delay
	// (ns) — the bias detector's reference population.
	KindOtherDelta
)

// Evidence is one item of a detector's stream.
type Evidence struct {
	Kind  Kind
	Value float64
}

// detKey identifies one detector.
type detKey struct {
	scope Scope
	class Class
}

// detState is one detector plus the bookkeeping the engine needs to
// emit its verdict.
type detState struct {
	key  detKey
	bin  *BernoulliSPRT
	mean *GaussianSPRT
	bias *BiasDetector

	state      State
	emitted    bool
	items      uint64 // evidence items consumed (trials/scored samples)
	epochStart uint64 // items at the start of the current epoch
	crossItem  uint64 // items at the detection crossing (1-based)
	traj       []float64
	trajCap    int
}

// stat returns the detector's current statistic.
func (d *detState) stat() float64 {
	switch {
	case d.bin != nil:
		return d.bin.Stat()
	case d.bias != nil:
		return d.bias.Stat()
	default:
		return d.mean.Stat()
	}
}

// pushTraj appends one per-epoch statistic snapshot, keeping the ring
// bounded.
func (d *detState) pushTraj(v float64) {
	if len(d.traj) >= d.trajCap {
		copy(d.traj, d.traj[1:])
		d.traj = d.traj[:len(d.traj)-1]
	}
	d.traj = append(d.traj, v)
}

// Engine owns the detectors of one rolling verifier. Not safe for
// concurrent use: the rolling pipeline feeds it from its single
// verification goroutine, in deterministic work order.
type Engine struct {
	cfg   Config
	dets  map[detKey]*detState
	order []*detState // first-seen order: deterministic EndEpoch sweeps
	done  []SeqVerdict
}

// NewEngine builds an engine; zero cfg fields take defaults.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), dets: make(map[detKey]*detState)}
}

// Config returns the engine's effective (default-filled) config.
func (e *Engine) Config() Config { return e.cfg }

// detector finds or creates the detector for (scope, class).
func (e *Engine) detector(scope Scope, class Class) *detState {
	k := detKey{scope: scope, class: class}
	if d, ok := e.dets[k]; ok {
		return d
	}
	d := &detState{key: k, trajCap: e.cfg.TrajectoryCap}
	c := e.cfg
	switch class {
	case ClassLoss, ClassFabricate:
		d.bin = NewBernoulliSPRT(c.Alpha, c.Beta, c.LossP0, c.LossP1)
		d.bin.setClip(c.ClipLLR)
	case ClassDelay:
		d.mean = NewGaussianSPRT(c.Alpha, c.Beta, c.DelayRefNS, c.DelayShiftNS, c.DelaySigmaNS)
		d.mean.setClip(c.ClipLLR)
	case ClassBias:
		d.bias = NewBiasDetector(c)
		d.bias.setClip(c.ClipLLR)
	}
	e.dets[k] = d
	e.order = append(e.order, d)
	return d
}

// Observe feeds one evidence batch to the (scope, class) detector.
// Items irrelevant to the class are skipped, so callers may reuse one
// mixed slice across classes. Batching carries no meaning: any
// chunking of the same stream yields the same crossings.
func (e *Engine) Observe(scope Scope, class Class, items []Evidence) {
	d := e.detector(scope, class)
	for _, it := range items {
		if d.state == Detected {
			// Keep tallying the epoch's evidence so the crossing's
			// mid-epoch fraction divides by the full epoch, not a
			// stream truncated at detection.
			if countable(class, it.Kind) {
				d.items++
			}
			continue
		}
		var st State
		counted := true
		switch class {
		case ClassLoss, ClassFabricate:
			switch it.Kind {
			case KindDrop:
				st = d.bin.Observe(true)
			case KindKeep:
				st = d.bin.Observe(false)
			default:
				counted = false
			}
		case ClassDelay:
			if it.Kind == KindDelta {
				st = d.mean.Observe(it.Value)
			} else {
				counted = false
			}
		case ClassBias:
			switch it.Kind {
			case KindOtherDelta:
				d.bias.ObserveRef(it.Value)
				counted = false
			case KindMarkerDelta:
				st = d.bias.ObserveMarker(it.Value)
			default:
				counted = false
			}
		}
		if !counted {
			continue
		}
		d.items++
		if st == Detected {
			d.state = Detected
			d.crossItem = d.items
		}
	}
}

// countable reports whether an evidence kind counts as one stream
// item for the class — the denominator of the mid-epoch crossing
// fraction.
func countable(class Class, k Kind) bool {
	switch class {
	case ClassLoss, ClassFabricate:
		return k == KindKeep || k == KindDrop
	case ClassDelay:
		return k == KindDelta
	case ClassBias:
		return k == KindMarkerDelta
	}
	return false
}

// EndEpoch closes one epoch: every detector snapshots its statistic
// into its trajectory, and each detector that crossed detection during
// the epoch emits its SeqVerdict (once). epoch is the epoch id the
// evidence batches since the previous EndEpoch belonged to.
func (e *Engine) EndEpoch(epoch uint64) []SeqVerdict {
	var out []SeqVerdict
	for _, d := range e.order {
		d.pushTraj(d.stat())
		if d.state == Detected && !d.emitted {
			span := d.items - d.epochStart
			frac := 1.0
			if span > 0 {
				frac = float64(d.crossItem-d.epochStart) / float64(span)
			}
			v := SeqVerdict{
				Class:  d.key.class,
				Up:     d.key.scope.Up,
				Down:   d.key.scope.Down,
				Key:    d.key.scope.Key,
				Domain: d.key.scope.Domain,
				Epoch:  epoch,
				Frac:   frac,
				N:      d.crossItem,
				Stat:   d.stat(),
				Alpha:  e.cfg.Alpha,
				Beta:   e.cfg.Beta,
			}
			v.Trajectory = append(v.Trajectory, d.traj...)
			out = append(out, v)
			e.done = append(e.done, v)
			d.emitted = true
		}
		d.epochStart = d.items
	}
	return out
}

// Verdicts returns every verdict emitted so far, in emission order.
func (e *Engine) Verdicts() []SeqVerdict { return e.done }

// SeqVerdict is an early sequential verdict: the (link, key) scope,
// evidence class, crossing epoch with its mid-epoch fraction, the
// statistic trajectory, and the configured error bounds — everything
// a consumer needs to audit the decision.
type SeqVerdict struct {
	Class Class  `json:"class"`
	Up    uint32 `json:"up"`
	Down  uint32 `json:"down"`
	Key   string `json:"key,omitempty"`
	// Domain is set for bias verdicts.
	Domain string `json:"domain,omitempty"`
	// Epoch is the epoch whose evidence crossed the threshold; Frac
	// in (0, 1] is how far through that epoch's evidence the crossing
	// landed. EpochsToVerdict() = Epoch + Frac is the detection
	// latency in epochs from stream start.
	Epoch uint64  `json:"epoch"`
	Frac  float64 `json:"frac"`
	// N is the total evidence items the detector had consumed at the
	// crossing; Stat is the statistic at emission.
	N    uint64  `json:"n"`
	Stat float64 `json:"stat"`
	// Alpha and Beta are the configured error bounds the crossing
	// thresholds were derived from.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// Trajectory is the per-epoch statistic trail up to and including
	// the crossing epoch (bounded by Config.TrajectoryCap).
	Trajectory []float64 `json:"trajectory,omitempty"`
}

// EpochsToVerdict is the detection latency in (fractional) epochs
// from the start of the evidence stream: crossing at 40% through
// epoch 0's evidence is 0.4 — a mid-epoch verdict the batch arm
// cannot produce before 1.0.
func (v SeqVerdict) EpochsToVerdict() float64 {
	return float64(v.Epoch) + v.Frac
}
