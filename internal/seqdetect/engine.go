package seqdetect

import (
	"cmp"
	"math"
	"slices"
)

// The Engine multiplexes the per-(link, key) detectors of one rolling
// verifier. Detectors are created and fed through Feeders, one per
// feeding goroutine: Feeder.Detector creates a detector at a position
// of the epoch's work order, and Feeder.Observe feeds it an evidence
// batch. EndEpoch closes the epoch and emits a SeqVerdict for each
// detector that crossed its detection threshold during it.
//
// An epoch costs what it was fed, not how many detectors exist. Each
// feeder lists the detectors it created or fed since the last EndEpoch,
// and EndEpoch visits only those. A detector's statistic moves only when
// it is fed, so it records a point (epoch, statistic) at the epochs it
// was fed and the epochs in between repeat the earlier point; the
// bounded per-epoch trajectory a verdict carries is rebuilt from those
// points when, and only when, the verdict is emitted. Verdicts crossing
// in one epoch are emitted in creation order — by the epoch a detector
// was created in, then its position in that epoch's work order — so the
// order depends on what was created where, not on which feeder created
// or fed it, or when.
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

// Detector is the handle of one (scope, class) detector. Create it once
// with Feeder.Detector and feed it with Feeder.Observe; the engine owns
// it.
type Detector struct {
	key  detKey
	pos  uint64 // position in the work order of the epoch it was born in
	bin  *BernoulliSPRT
	mean *GaussianSPRT
	bias *BiasDetector

	state      State
	emitted    bool
	listed     uint64 // 1 + the epoch tick the detector was last listed as fed in
	born       uint64 // the epoch tick it was created in: with pos, its emission order
	items      uint64 // evidence items consumed (trials/scored samples)
	epochStart uint64 // items at the start of the current epoch
	crossItem  uint64 // items at the detection crossing (1-based)
	// pts are the statistic at the epochs it was fed, ascending, pruned
	// to what the last TrajectoryCap epochs need.
	pts []point
}

// point is a detector's statistic as one epoch closed.
type point struct {
	tick uint64
	stat float64
}

// stat returns the detector's current statistic.
func (d *Detector) stat() float64 {
	switch {
	case d.bin != nil:
		return d.bin.Stat()
	case d.bias != nil:
		return d.bias.Stat()
	default:
		return d.mean.Stat()
	}
}

// Engine owns the detectors of one rolling verifier.
//
// Within an epoch, detectors are created and fed only through Feeders,
// and each Feeder belongs to one goroutine at a time. Several goroutines
// may feed at once, each through its own Feeder, as long as no detector
// is fed through two Feeders in one epoch and no two detectors created
// in one epoch share a position. NewFeeder and EndEpoch run on one
// goroutine, while nothing feeds: EndEpoch gathers every feeder's fed
// list, so a caller that feeds from several goroutines joins them first.
type Engine struct {
	cfg Config
	// tick counts EndEpoch calls: the epoch being fed. Feeders read it;
	// only EndEpoch writes it.
	tick    uint64
	feeders []*Feeder
	// crossed is EndEpoch's scratch.
	crossed []*Detector
	// Point segments are cut from a chunked slab by EndEpoch.
	ptSlab slab[point]
}

// NewEngine builds an engine; zero cfg fields take defaults.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Feeder creates and feeds an engine's detectors on behalf of one
// goroutine: it cuts detector state from its own chunked slabs — one
// allocation per chunk, addresses stable for the engine's life — and
// lists the detectors it created or fed since the last EndEpoch, each
// once.
type Feeder struct {
	eng *Engine
	fed []*Detector

	detSlab  slab[Detector]
	binSlab  slab[BernoulliSPRT]
	meanSlab slab[GaussianSPRT]
	biasSlab slab[BiasDetector]
}

// NewFeeder adds a feeder to the engine.
func (e *Engine) NewFeeder() *Feeder {
	f := &Feeder{eng: e}
	e.feeders = append(e.feeders, f)
	return f
}

// Detector creates the (scope, class) detector at position pos of the
// current epoch's work order; among the detectors created in one epoch,
// pos orders their verdicts, so no two may share it. Each call creates
// a new detector: a caller that feeds one scope from several places
// keeps the handle. A detector created counts as fed in the current
// epoch, so it snapshots its statistic from this epoch on, as if fed an
// empty batch.
func (f *Feeder) Detector(scope Scope, class Class, pos uint64) *Detector {
	d := f.detSlab.alloc()
	*d = Detector{key: detKey{scope: scope, class: class}, pos: pos, born: f.eng.tick}
	c := f.eng.cfg
	switch class {
	case ClassLoss, ClassFabricate:
		d.bin = f.binSlab.alloc()
		*d.bin = newBernoulliSPRT(c.Alpha, c.Beta, c.LossP0, c.LossP1)
		d.bin.setClip(c.ClipLLR)
	case ClassDelay:
		d.mean = f.meanSlab.alloc()
		*d.mean = newGaussianSPRT(c.Alpha, c.Beta, c.DelayRefNS, c.DelayShiftNS, c.DelaySigmaNS)
		d.mean.setClip(c.ClipLLR)
	case ClassBias:
		mean := f.meanSlab.alloc()
		*mean = newBiasMean(c)
		d.bias = f.biasSlab.alloc()
		*d.bias = BiasDetector{minRef: c.BiasMinRef, mean: mean}
		d.bias.setClip(c.ClipLLR)
	}
	f.list(d)
	return d
}

// list enters d in the feeder's fed list, once per epoch.
func (f *Feeder) list(d *Detector) {
	if t := f.eng.tick + 1; d.listed != t {
		d.listed = t
		f.fed = append(f.fed, d)
	}
}

// Observe feeds one evidence batch to d. Items irrelevant to its class
// are skipped, so callers may reuse one mixed slice across classes.
// Batching carries no meaning: any chunking of the same stream yields
// the same crossings. A detector whose verdict was emitted has nothing
// left to decide and ignores its feed.
//
//vpm:hotpath
func (f *Feeder) Observe(d *Detector, items []Evidence) {
	if d.emitted {
		return
	}
	f.list(d)
	class := d.key.class
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

// EndEpoch closes one epoch: every detector created or fed during it,
// through any feeder, records its statistic, and each that crossed
// detection emits its SeqVerdict (once), in creation order. Detectors
// left idle are not visited. epoch is the epoch id the evidence batches
// since the previous EndEpoch belonged to.
//
//vpm:hotpath
func (e *Engine) EndEpoch(epoch uint64) []SeqVerdict {
	crossed := e.crossed[:0]
	for _, f := range e.feeders {
		for _, d := range f.fed {
			if d.state == Detected {
				crossed = append(crossed, d)
				continue
			}
			e.record(d)
			d.epochStart = d.items
		}
		clear(f.fed)
		f.fed = f.fed[:0]
	}
	var out []SeqVerdict
	if len(crossed) > 0 {
		slices.SortFunc(crossed, byCreation)
		//lint:ignore hotpath once per epoch with a crossing: the verdicts are the epoch's output
		out = make([]SeqVerdict, len(crossed))
		for i, d := range crossed {
			out[i] = e.emit(d, epoch)
		}
		clear(crossed)
	}
	e.crossed = crossed[:0]
	e.tick++
	return out
}

// byCreation orders detectors by creation: the epoch each was born in,
// then its position in that epoch's work order.
func byCreation(a, b *Detector) int {
	if c := cmp.Compare(a.born, b.born); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// emit builds d's verdict as the epoch closes and retires d.
func (e *Engine) emit(d *Detector, epoch uint64) SeqVerdict {
	span := d.items - d.epochStart
	frac := 1.0
	if span > 0 {
		frac = float64(d.crossItem-d.epochStart) / float64(span)
	}
	stat := d.stat()
	e.record(d)
	v := SeqVerdict{
		Class:      d.key.class,
		Up:         d.key.scope.Up,
		Down:       d.key.scope.Down,
		Key:        d.key.scope.Key,
		Domain:     d.key.scope.Domain,
		Epoch:      epoch,
		Frac:       frac,
		N:          d.crossItem,
		Stat:       stat,
		Alpha:      e.cfg.Alpha,
		Beta:       e.cfg.Beta,
		Trajectory: d.trajectory(max(d.born, e.window()), e.tick),
	}
	d.emitted, d.pts = true, nil
	return v
}

// record notes d's statistic as the current epoch closes, unless it is
// the statistic d last recorded. A full point slice first drops the
// points no trajectory of the last TrajectoryCap epochs can reach, then
// moves to a slab segment twice its size.
func (e *Engine) record(d *Detector) {
	stat := d.stat()
	if n := len(d.pts); n > 0 && math.Float64bits(d.pts[n-1].stat) == math.Float64bits(stat) {
		return
	}
	if len(d.pts) == cap(d.pts) {
		d.pts = d.pts[:copy(d.pts, d.pts[d.firstNeeded(e.window()):])]
		if len(d.pts) == cap(d.pts) {
			//lint:ignore hotpath a move to a slab segment twice the size: a few times per detector, its points bounded by the trajectory cap
			d.pts = append(e.points(max(2*cap(d.pts), 2)), d.pts...)
		}
	}
	d.pts = append(d.pts, point{tick: e.tick, stat: stat})
}

// window returns the first epoch tick of the trajectory a verdict
// emitted at the current tick may carry.
func (e *Engine) window() uint64 {
	if n := uint64(e.cfg.TrajectoryCap); e.tick >= n {
		return e.tick - n + 1
	}
	return 0
}

// firstNeeded returns the index of the point that values epoch tick
// from: the last recorded at or before it (0 when none is).
func (d *Detector) firstNeeded(from uint64) int {
	i := 0
	for i+1 < len(d.pts) && d.pts[i+1].tick <= from {
		i++
	}
	return i
}

// trajectory rebuilds the statistic at each epoch tick from through now:
// each epoch repeats the last point recorded at or before it.
func (d *Detector) trajectory(from, now uint64) []float64 {
	//lint:ignore hotpath once per verdict: the trajectory it carries
	out := make([]float64, 0, now-from+1)
	j := d.firstNeeded(from)
	for t := from; t <= now; t++ {
		for j+1 < len(d.pts) && d.pts[j+1].tick <= t {
			j++
		}
		out = append(out, d.pts[j].stat)
	}
	return out
}

// points returns an empty point slice of capacity n cut from the
// engine's point slab.
func (e *Engine) points(n int) []point {
	if n > len(e.ptSlab.free) {
		e.ptSlab.grow(n, 4*slabChunkMax)
		if n > len(e.ptSlab.free) {
			//lint:ignore hotpath larger than the largest chunk: only under a TrajectoryCap in the thousands
			return make([]point, 0, n)
		}
	}
	p := e.ptSlab.free[:0:n]
	e.ptSlab.free = e.ptSlab.free[n:]
	return p
}

// slab hands out stable pointers into chunks it allocates a chunk at a
// time, chunks doubling from slabChunkMin so that a small engine stays
// small.
type slab[T any] struct {
	free []T
	next int
}

const (
	slabChunkMin = 4
	slabChunkMax = 1024
)

// grow replaces the free chunk with a fresh one of the next size, at
// least need and at most limit elements.
func (s *slab[T]) grow(need, limit int) {
	s.next = min(max(2*s.next, slabChunkMin, need), limit)
	//lint:ignore hotpath once per chunk, amortized over the chunk's elements
	s.free = make([]T, s.next)
}

func (s *slab[T]) alloc() *T {
	if len(s.free) == 0 {
		s.grow(1, slabChunkMax)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

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
