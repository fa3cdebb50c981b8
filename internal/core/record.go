package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"vpm/internal/aggregation"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// The report record: an epoch report as the verifier files it with its
// durable backend. The canonical JSON (AppendEpochReport) is what every
// reader, fingerprint and golden file sees; it repeats field names,
// zero values and key text in every (key, route) entry, so a mesh
// report is many times the receipts it judges. The record keeps the
// same structs losslessly in the receipt codec's idiom, and the store
// renders the JSON from it when a reader asks — the same bytes
// AppendEpochReport would have produced at verification.
//
//	record:  magic[8] epoch:uvarint aggs:uvarint agg receipt* keys seq
//	keys:    len (key:ref route:varint links domains blames bias)*
//	links:   len (linkID:varint up down violations matched missingDown missingUp)*
//	domains: len (name:ref ingress egress pairs:len in lost migrations
//	         partial:bool delaySamples estimates errText:ref)*
//	seq:     len (class up down key:ref domain:ref epoch frac:f64 n
//	         stat:f64 alpha:f64 beta:f64 trajectory:len f64*)*
//
// and likewise for violations, estimates, blames and bias verdicts, in
// their struct field order. A len is a uvarint holding 0 for a nil
// slice and n+1 for n elements, so null and [] both survive. Signed
// integers are zigzag varints, unsigned ones and HOPs uvarints, floats
// their raw IEEE bits (8 bytes, little-endian), bools one byte. A ref
// indexes a per-record table — one of strings, which starts with the
// empty string at index 0, one of PathKeys: an index below the table's
// length names an entry, the length itself defines the next entry in
// place (a string as its uvarint length and bytes, a key as its two raw
// prefixes, address then bits). Every Loss.Pairs aggregate receipt
// sits in the aggregate section ahead of the keys, A then B, in the
// receipt codec's AppendBinary layout; a pairs len takes the next ones
// from it.

// recordMagic opens every report record; its digit is the layout's
// version. A canonical JSON report opens with '{'.
var recordMagic = [8]byte{'V', 'P', 'M', 'R', 'E', 'P', '1', '\n'}

// ErrReportRecord is wrapped by every error a report record's decode
// returns.
var ErrReportRecord = errors.New("core: malformed report record")

// RecordError says where a report record stopped decoding, and why.
type RecordError struct {
	Offset int // bytes into the record
	Reason string
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("%v at byte %d: %s", ErrReportRecord, e.Offset, e.Reason)
}

// Unwrap returns ErrReportRecord, so errors.Is matches every decode
// failure against it.
func (e *RecordError) Unwrap() error { return ErrReportRecord }

// IsReportRecord reports whether payload opens with the record magic —
// whether it is a record rather than a canonical JSON report.
func IsReportRecord(payload []byte) bool {
	return len(payload) >= len(recordMagic) && [8]byte(payload[:8]) == recordMagic
}

// AppendReportRecord appends rep's record to dst. A NaN or infinite
// float returns the *json.UnsupportedValueError AppendEpochReport
// would, and dst at its original length: a record that cannot be
// rendered is never filed.
func AppendReportRecord(dst []byte, rep *EpochReport) ([]byte, error) {
	var e recordEncoder
	return e.append(dst, rep)
}

// recordEncoder appends report records. Its two tables are kept from
// record to record, so a verifier that files a record every epoch
// allocates only while they grow.
type recordEncoder struct {
	b    []byte
	err  error
	strs map[string]uint64
	keys map[packet.PathKey]uint64
}

func (e *recordEncoder) append(dst []byte, rep *EpochReport) ([]byte, error) {
	if e.strs == nil {
		e.strs = make(map[string]uint64)
		e.keys = make(map[packet.PathKey]uint64)
	}
	clear(e.strs)
	clear(e.keys)
	e.b, e.err = append(dst, recordMagic[:]...), nil
	e.uint(uint64(rep.Epoch))
	aggs := 0
	for i := range rep.Keys {
		for j := range rep.Keys[i].Domains {
			aggs += 2 * len(rep.Keys[i].Domains[j].Loss.Pairs)
		}
	}
	e.uint(uint64(aggs))
	for i := range rep.Keys {
		for j := range rep.Keys[i].Domains {
			for _, p := range rep.Keys[i].Domains[j].Loss.Pairs {
				e.b = p.B.AppendBinary(p.A.AppendBinary(e.b))
			}
		}
	}
	e.len(rep.Keys == nil, len(rep.Keys))
	for i := range rep.Keys {
		e.keyReport(&rep.Keys[i])
	}
	e.len(rep.Seq == nil, len(rep.Seq))
	for i := range rep.Seq {
		e.seqVerdict(&rep.Seq[i])
	}
	b := e.b
	e.b = nil
	if e.err != nil {
		return b[:len(dst)], e.err
	}
	return b, nil
}

func (e *recordEncoder) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *recordEncoder) int(v int64)   { e.b = binary.AppendVarint(e.b, v) }

func (e *recordEncoder) len(isNil bool, n int) {
	if isNil {
		e.uint(0)
	} else {
		e.uint(uint64(n) + 1)
	}
}

func (e *recordEncoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *recordEncoder) float(f float64) {
	bits := math.Float64bits(f)
	if bits>>52&0x7ff == 0x7ff && e.err == nil { // NaN or ±Inf
		e.err = unsupportedFloat(f)
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, bits)
}

func (e *recordEncoder) string(s string) {
	if s == "" {
		e.b = append(e.b, 0)
		return
	}
	if i, ok := e.strs[s]; ok {
		e.uint(i)
		return
	}
	n := uint64(len(e.strs)) + 1 // index 0 is the empty string
	e.strs[s] = n
	e.uint(n)
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *recordEncoder) key(k packet.PathKey) {
	if i, ok := e.keys[k]; ok {
		e.uint(i)
		return
	}
	n := uint64(len(e.keys))
	e.keys[k] = n
	e.uint(n)
	s, d := k.Src, k.Dst
	e.b = append(e.b, s.Addr[0], s.Addr[1], s.Addr[2], s.Addr[3], s.Bits, d.Addr[0], d.Addr[1], d.Addr[2], d.Addr[3], d.Bits)
}

func (e *recordEncoder) keyReport(kr *EpochKeyReport) {
	e.key(kr.Key)
	e.int(int64(kr.Route))
	e.len(kr.Links == nil, len(kr.Links))
	for i := range kr.Links {
		lv := &kr.Links[i]
		e.int(int64(lv.LinkID))
		e.uint(uint64(lv.Up))
		e.uint(uint64(lv.Down))
		e.len(lv.Violations == nil, len(lv.Violations))
		for j := range lv.Violations {
			v := &lv.Violations[j]
			e.int(int64(v.Kind))
			e.uint(v.PktID)
			e.string(v.Detail)
		}
		e.int(int64(lv.MatchedSamples))
		e.int(int64(lv.MissingDown))
		e.int(int64(lv.MissingUp))
	}
	e.len(kr.Domains == nil, len(kr.Domains))
	for i := range kr.Domains {
		dr := &kr.Domains[i]
		e.string(dr.Name)
		e.uint(uint64(dr.Ingress))
		e.uint(uint64(dr.Egress))
		e.len(dr.Loss.Pairs == nil, len(dr.Loss.Pairs))
		e.int(dr.Loss.In)
		e.int(dr.Loss.Lost)
		e.int(int64(dr.Loss.Migrations))
		e.bool(dr.PartialLoss)
		e.int(int64(dr.DelaySamples))
		e.len(dr.DelayEstimates == nil, len(dr.DelayEstimates))
		for j := range dr.DelayEstimates {
			q := &dr.DelayEstimates[j]
			e.float(q.Q)
			e.float(q.Point)
			e.float(q.Lo)
			e.float(q.Hi)
			e.int(int64(q.N))
			e.bool(q.Exact)
		}
		e.string(dr.DelayEstimateErr)
	}
	e.len(kr.Blames == nil, len(kr.Blames))
	for i := range kr.Blames {
		b := &kr.Blames[i]
		e.uint(uint64(b.Epoch))
		e.int(int64(b.Evidence))
		e.int(int64(b.LinkID))
		e.len(b.HOPs == nil, len(b.HOPs))
		for _, h := range b.HOPs {
			e.uint(uint64(h))
		}
		e.len(b.Domains == nil, len(b.Domains))
		for _, d := range b.Domains {
			e.string(d)
		}
		e.int(int64(b.Count))
		e.string(b.Detail)
	}
	e.len(kr.Bias == nil, len(kr.Bias))
	for i := range kr.Bias {
		bv := &kr.Bias[i]
		e.string(bv.Domain)
		e.int(int64(bv.Report.MarkerN))
		e.int(int64(bv.Report.OtherN))
		e.float(bv.Report.MarkerP90MS)
		e.float(bv.Report.OtherP90MS)
		e.float(bv.Report.MarkerMeanMS)
		e.float(bv.Report.OtherMeanMS)
		e.bool(bv.Report.Suspicious)
	}
}

func (e *recordEncoder) seqVerdict(v *seqdetect.SeqVerdict) {
	e.uint(uint64(v.Class))
	e.uint(uint64(v.Up))
	e.uint(uint64(v.Down))
	e.string(v.Key)
	e.string(v.Domain)
	e.uint(v.Epoch)
	e.float(v.Frac)
	e.uint(v.N)
	e.float(v.Stat)
	e.float(v.Alpha)
	e.float(v.Beta)
	e.len(v.Trajectory == nil, len(v.Trajectory))
	for _, f := range v.Trajectory {
		e.float(f)
	}
}

// DecodeReportRecord decodes a record AppendReportRecord wrote into a
// report of its own. Any malformed input returns a *RecordError
// (wrapping ErrReportRecord).
func DecodeReportRecord(rec []byte) (EpochReport, error) {
	var d ReportDecoder
	rep, err := d.Decode(rec)
	if err != nil {
		return EpochReport{}, err
	}
	return *rep, nil
}

// The fewest bytes one element of each slice takes in a record. A
// length is checked against them before anything is cut for it, so
// what a decode allocates is bounded by the record's size.
const (
	minKeyReport = 6  // key ref, route, four lens
	minLink      = 7  // six varints and a len
	minViolation = 3  // kind, PktID, detail ref
	minDomain    = 11 // eight varints or refs, two lens, a bool
	minEstimate  = 34 // four floats, a varint, a bool
	minBlame     = 7  // five varints or refs, two lens
	minBias      = 36 // a ref, two varints, four floats, a bool
	minSeq       = 40 // six varints or refs, four floats, a len
	minFloat     = 8
)

// ReportDecoder decodes report records into storage it keeps from
// record to record: a copy of the record, which the report's strings
// are views of, one slab per slice type, cut with cap == len, and the
// two tables. Once they have grown, a decode allocates only the
// aggregate section's receipts (receipt.DecodeReceipts, none when the
// report holds no loss pairs), whatever the record's size. The report
// Decode returns lives in that storage, strings included: it is valid
// until the next Decode, and whatever must outlive that is copied out
// first (DecodeReportRecord uses a decoder of its own). A ReportDecoder
// is not safe for concurrent use; the zero value is ready.
type ReportDecoder struct {
	b   []byte // the record, a copy in own
	own []byte
	off int
	err error
	rep EpochReport

	strs []string
	keys []packet.PathKey
	aggs []receipt.AggReceipt // the aggregate section not yet paired

	keyReports []EpochKeyReport
	links      []LinkVerdict
	violations []receipt.Inconsistency
	domains    []DomainReport
	pairs      []aggregation.Pair
	estimates  []quantile.Estimate
	blames     []Blame
	hops       []receipt.HOPID
	names      []string
	bias       []DomainBiasVerdict
	seq        []seqdetect.SeqVerdict
	floats     []float64
}

// Decode decodes rec. Malformed input returns a *RecordError (wrapping
// ErrReportRecord) and never panics.
func (d *ReportDecoder) Decode(rec []byte) (*EpochReport, error) {
	d.own = append(d.own[:0], rec...)
	d.b, d.off, d.err = d.own, 0, nil
	d.strs, d.keys, d.aggs = append(d.strs[:0], ""), d.keys[:0], nil
	d.keyReports, d.links, d.violations, d.domains = d.keyReports[:0], d.links[:0], d.violations[:0], d.domains[:0]
	d.pairs, d.estimates, d.blames, d.hops = d.pairs[:0], d.estimates[:0], d.blames[:0], d.hops[:0]
	d.names, d.bias, d.seq, d.floats = d.names[:0], d.bias[:0], d.seq[:0], d.floats[:0]
	d.rep = EpochReport{}
	if !IsReportRecord(rec) {
		return nil, &RecordError{Reason: "no record magic"}
	}
	d.off = len(recordMagic)
	d.rep.Epoch = EpochID(d.uint())
	if n := d.uint(); d.err == nil {
		if n > math.MaxUint32 {
			d.fail("%d aggregate receipts", n)
		} else if _, aggs, rest, err := receipt.DecodeReceipts(d.b[d.off:], 0, uint32(n)); err != nil {
			d.fail("aggregate section: %v", err)
		} else {
			d.aggs, d.off = aggs, len(d.b)-len(rest)
		}
	}
	if n, ok := d.len(minKeyReport); ok {
		d.rep.Keys = take(&d.keyReports, n)
		for i := range d.rep.Keys {
			d.keyReport(&d.rep.Keys[i])
		}
	}
	if n, ok := d.len(minSeq); ok {
		d.rep.Seq = take(&d.seq, n)
		for i := range d.rep.Seq {
			d.seqVerdict(&d.rep.Seq[i])
		}
	}
	switch {
	case d.err != nil:
	case len(d.aggs) > 0:
		d.fail("%d aggregate receipts left unpaired", len(d.aggs))
	case d.off != len(d.b):
		d.fail("%d bytes after the report", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return &d.rep, nil
}

// take returns the next n elements of *slab, cap == len, starting a
// larger slab when the spare capacity is short; never nil, so an empty
// slice stays []. Cut elements hold what an earlier record left there;
// the caller overwrites every field.
func take[T any](slab *[]T, n int) []T {
	if n == 0 {
		return []T{}
	}
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// fail records the first error. Every len after it reads as nil, so a
// decode that failed unwinds at once; what the other reads return
// after it no longer matters.
func (d *ReportDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &RecordError{Offset: d.off, Reason: fmt.Sprintf(format, args...)}
	}
}

// uint reads a uvarint. Most are one byte, read without a further
// check; a failure leaves the offset where it was.
func (d *ReportDecoder) uint() uint64 {
	if b := d.b[d.off:]; len(b) > 0 && b[0] < 0x80 {
		d.off++
		return uint64(b[0])
	}
	return d.longUint()
}

func (d *ReportDecoder) longUint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *ReportDecoder) int() int64 {
	if b := d.b[d.off:]; len(b) > 0 && b[0] < 0x80 {
		d.off++
		return int64(b[0]>>1) ^ -int64(b[0]&1)
	}
	return d.longInt()
}

func (d *ReportDecoder) longInt() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *ReportDecoder) uint32() uint32 {
	v := d.uint()
	if v > math.MaxUint32 {
		d.fail("%d out of range", v)
		return 0
	}
	return uint32(v)
}

func (d *ReportDecoder) hop() receipt.HOPID { return receipt.HOPID(d.uint32()) }

func (d *ReportDecoder) bool() bool {
	if d.off >= len(d.b) || d.b[d.off] > 1 {
		d.fail("bad bool")
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

func (d *ReportDecoder) float() float64 {
	if len(d.b)-d.off < 8 {
		d.fail("truncated float")
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off-8:]))
}

// len reads a slice length whose elements take at least min bytes
// each: false for a nil slice, or after a failure — so once a decode
// has failed, no loop but the one it failed in runs on.
func (d *ReportDecoder) len(min int) (int, bool) {
	v := d.uint()
	if v == 0 || d.err != nil {
		return 0, false
	}
	if v-1 > uint64(len(d.b)-d.off)/uint64(min) {
		d.fail("%d elements in %d bytes", v-1, len(d.b)-d.off)
		return 0, false
	}
	return int(v - 1), true
}

func (d *ReportDecoder) string() string {
	v := d.uint()
	switch {
	case d.err != nil:
		return ""
	case v < uint64(len(d.strs)):
		return d.strs[v]
	case v > uint64(len(d.strs)):
		d.fail("string %d of %d", v, len(d.strs))
		return ""
	}
	n := d.uint()
	if n > uint64(len(d.b)-d.off) {
		d.fail("%d-byte string in %d bytes", n, len(d.b)-d.off)
		return ""
	}
	if d.err != nil {
		return ""
	}
	var s string
	if n > 0 {
		s = unsafe.String(&d.b[d.off], n)
	}
	d.off += int(n)
	d.strs = append(d.strs, s)
	return s
}

func (d *ReportDecoder) key() packet.PathKey {
	v := d.uint()
	switch {
	case d.err != nil:
		return packet.PathKey{}
	case v < uint64(len(d.keys)):
		return d.keys[v]
	case v > uint64(len(d.keys)):
		d.fail("key %d of %d", v, len(d.keys))
		return packet.PathKey{}
	case len(d.b)-d.off < 10:
		d.fail("truncated key")
		return packet.PathKey{}
	}
	b := d.b[d.off : d.off+10]
	d.off += 10
	k := packet.PathKey{
		Src: packet.Prefix{Addr: [4]byte(b[0:4]), Bits: b[4]},
		Dst: packet.Prefix{Addr: [4]byte(b[5:9]), Bits: b[9]},
	}
	d.keys = append(d.keys, k)
	return k
}

func (d *ReportDecoder) keyReport(kr *EpochKeyReport) {
	*kr = EpochKeyReport{Key: d.key(), Route: int(d.int())}
	if n, ok := d.len(minLink); ok {
		kr.Links = take(&d.links, n)
		for i := range kr.Links {
			lv := &kr.Links[i]
			*lv = LinkVerdict{LinkID: int(d.int()), Up: d.hop(), Down: d.hop()}
			if n, ok := d.len(minViolation); ok {
				lv.Violations = take(&d.violations, n)
				for j := range lv.Violations {
					lv.Violations[j] = receipt.Inconsistency{Kind: receipt.InconsistencyKind(d.int()), PktID: d.uint(), Detail: d.string()}
				}
			}
			lv.MatchedSamples, lv.MissingDown, lv.MissingUp = int(d.int()), int(d.int()), int(d.int())
		}
	}
	if n, ok := d.len(minDomain); ok {
		kr.Domains = take(&d.domains, n)
		for i := range kr.Domains {
			d.domainReport(&kr.Domains[i])
		}
	}
	if n, ok := d.len(minBlame); ok {
		kr.Blames = take(&d.blames, n)
		for i := range kr.Blames {
			b := &kr.Blames[i]
			*b = Blame{Epoch: EpochID(d.uint()), Evidence: EvidenceClass(d.int()), LinkID: int(d.int())}
			if n, ok := d.len(1); ok {
				b.HOPs = take(&d.hops, n)
				for j := range b.HOPs {
					b.HOPs[j] = d.hop()
				}
			}
			if n, ok := d.len(1); ok {
				b.Domains = take(&d.names, n)
				for j := range b.Domains {
					b.Domains[j] = d.string()
				}
			}
			b.Count, b.Detail = int(d.int()), d.string()
		}
	}
	if n, ok := d.len(minBias); ok {
		kr.Bias = take(&d.bias, n)
		for i := range kr.Bias {
			kr.Bias[i] = DomainBiasVerdict{Domain: d.string(), Report: MarkerBiasReport{
				MarkerN: int(d.int()), OtherN: int(d.int()),
				MarkerP90MS: d.float(), OtherP90MS: d.float(), MarkerMeanMS: d.float(), OtherMeanMS: d.float(),
				Suspicious: d.bool(),
			}}
		}
	}
}

func (d *ReportDecoder) domainReport(dr *DomainReport) {
	*dr = DomainReport{Name: d.string(), Ingress: d.hop(), Egress: d.hop()}
	if v := d.uint(); v > 0 && d.err == nil {
		n := v - 1
		if n > uint64(len(d.aggs)/2) {
			d.fail("%d pairs, %d aggregate receipts left", n, len(d.aggs))
		} else {
			dr.Loss.Pairs = take(&d.pairs, int(n))
			for i := range dr.Loss.Pairs {
				dr.Loss.Pairs[i] = aggregation.Pair{A: d.aggs[2*i], B: d.aggs[2*i+1]}
			}
			d.aggs = d.aggs[2*n:]
		}
	}
	dr.Loss.In, dr.Loss.Lost, dr.Loss.Migrations = d.int(), d.int(), int(d.int())
	dr.PartialLoss, dr.DelaySamples = d.bool(), int(d.int())
	if n, ok := d.len(minEstimate); ok {
		dr.DelayEstimates = take(&d.estimates, n)
		for i := range dr.DelayEstimates {
			dr.DelayEstimates[i] = quantile.Estimate{Q: d.float(), Point: d.float(), Lo: d.float(), Hi: d.float(), N: int(d.int()), Exact: d.bool()}
		}
	}
	dr.DelayEstimateErr = d.string()
}

func (d *ReportDecoder) seqVerdict(v *seqdetect.SeqVerdict) {
	class := d.uint()
	if class > math.MaxUint8 {
		d.fail("class %d out of range", class)
	}
	*v = seqdetect.SeqVerdict{
		Class: seqdetect.Class(class), Up: d.uint32(), Down: d.uint32(), Key: d.string(), Domain: d.string(),
		Epoch: d.uint(), Frac: d.float(), N: d.uint(), Stat: d.float(), Alpha: d.float(), Beta: d.float(),
	}
	if n, ok := d.len(minFloat); ok {
		v.Trajectory = take(&d.floats, n)
		for i := range v.Trajectory {
			v.Trajectory[i] = d.float()
		}
	}
}
