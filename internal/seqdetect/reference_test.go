package seqdetect

// refEngine is the engine as it stood before detectors became handles,
// kept as the oracle FuzzEngineMatchesReference holds Engine to: a map
// lookup per feed, a full sweep of every detector ever created at each
// EndEpoch, and a trajectory ring shifted once per epoch per detector.

// refKey identifies one reference detector.
type refKey struct {
	scope Scope
	class Class
}

// refState is one reference detector plus its emission bookkeeping.
type refState struct {
	key  refKey
	bin  *BernoulliSPRT
	mean *GaussianSPRT
	bias *BiasDetector

	state      State
	emitted    bool
	items      uint64
	epochStart uint64
	crossItem  uint64
	traj       []float64
	trajCap    int
}

func (d *refState) stat() float64 {
	switch {
	case d.bin != nil:
		return d.bin.Stat()
	case d.bias != nil:
		return d.bias.Stat()
	default:
		return d.mean.Stat()
	}
}

func (d *refState) pushTraj(v float64) {
	if len(d.traj) >= d.trajCap {
		copy(d.traj, d.traj[1:])
		d.traj = d.traj[:len(d.traj)-1]
	}
	d.traj = append(d.traj, v)
}

type refEngine struct {
	cfg   Config
	dets  map[refKey]*refState
	order []*refState
	done  []SeqVerdict
}

func newRefEngine(cfg Config) *refEngine {
	return &refEngine{cfg: cfg.withDefaults(), dets: make(map[refKey]*refState)}
}

func (e *refEngine) detector(scope Scope, class Class) *refState {
	k := refKey{scope: scope, class: class}
	if d, ok := e.dets[k]; ok {
		return d
	}
	d := &refState{key: k, trajCap: e.cfg.TrajectoryCap}
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

// Observe feeds one evidence batch to the (scope, class) detector,
// creating it on first use.
func (e *refEngine) Observe(scope Scope, class Class, items []Evidence) {
	d := e.detector(scope, class)
	for _, it := range items {
		if d.state == Detected {
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

// EndEpoch snapshots every detector's statistic and emits, in creation
// order, the verdict of each detector that crossed during the epoch.
func (e *refEngine) EndEpoch(epoch uint64) []SeqVerdict {
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

// ReferenceEngine exports the oracle to the package's external tests.
type ReferenceEngine = refEngine

// NewReferenceEngine builds the oracle engine.
func NewReferenceEngine(cfg Config) *ReferenceEngine { return newRefEngine(cfg) }
