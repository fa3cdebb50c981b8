package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"vpm/internal/aggregation"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// The canonical verdict encoder: the JSON every reader, fingerprint and
// golden file sees, rendered from the structs (the store renders it
// from a decoded report record on read, see record.go). A 2.6 MB mesh
// report used to cost a reflection walk; these functions append the same bytes
// json.Marshal renders for the report types — field order and names,
// null for a nil slice and [] for an empty one, omitempty where the
// struct tags ask for it, ES6 float formatting, HTML-safe string
// escaping — with no reflection and no intermediate buffer.
// json.Marshal stays the oracle: TestAppendEpochReportMatchesJSONMarshal
// and FuzzAppendEpochReport hold every byte to it, so a field added to
// a report type without a line here fails on the first report encoded.

// AppendEpochReport appends the canonical encoding of rep to dst. A
// NaN or infinite float returns the *json.UnsupportedValueError
// json.Marshal would, and dst at its original length.
func AppendEpochReport(dst []byte, rep *EpochReport) ([]byte, error) {
	e := reportEncoder{b: dst}
	e.epochReport(rep)
	return e.finish(len(dst))
}

// AppendEpochKeyReport appends the canonical encoding of one key's
// report — the unit a fleet shard part is split at.
func AppendEpochKeyReport(dst []byte, kr *EpochKeyReport) ([]byte, error) {
	e := reportEncoder{b: dst}
	e.keyReport(kr)
	return e.finish(len(dst))
}

// AppendSeqVerdicts appends the canonical encoding of a report's
// sequential verdicts as the "Seq" member spells them (null when nil).
func AppendSeqVerdicts(dst []byte, vs []seqdetect.SeqVerdict) ([]byte, error) {
	e := reportEncoder{b: dst}
	e.seqVerdicts(vs)
	return e.finish(len(dst))
}

// reportEncoder carries the output and the first float error.
type reportEncoder struct {
	b   []byte
	err error
}

func (e *reportEncoder) finish(start int) ([]byte, error) {
	if e.err != nil {
		return e.b[:start], e.err
	}
	return e.b, nil
}

func (e *reportEncoder) lit(s string) { e.b = append(e.b, s...) }
func (e *reportEncoder) int(v int64)  { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *reportEncoder) uint(v uint64) {
	e.b = strconv.AppendUint(e.b, v, 10)
}

func (e *reportEncoder) bool(v bool) {
	if v {
		e.lit("true")
	} else {
		e.lit("false")
	}
}

// float formats as encoding/json does: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21, exponent unpadded. An
// integer below 2⁵³ in magnitude, other than −0, is its own shortest
// form — most order-statistic bounds and points are whole nanoseconds
// — and is written as one.
func (e *reportEncoder) float(f float64) {
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		e.b = strconv.AppendInt(e.b, i, 10)
		return
	}
	if err := unsupportedFloat(f); err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// unsupportedFloat returns the error json.Marshal gives for f, nil
// when f is finite.
func unsupportedFloat(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

const hexDigits = "0123456789abcdef"

// plainByte marks the bytes a JSON string carries as they are: ASCII
// from the space up, except the quote, the backslash and the three
// HTML-escaped <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// string escapes as encoding/json does with HTML escaping on: quotes,
// backslashes and control bytes, <, > and &, U+2028/2029, and invalid
// UTF-8 as U+FFFD. A run of plain bytes is appended whole, so a
// string of only those — every domain name and most details — is one
// append.
func (e *reportEncoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plainByte[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case r == 0x2028 || r == 0x2029: // line and paragraph separator
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// list spells a nil slice null, or opens an array and reports that
// elements follow: the caller writes them, sep between, and the ']'.
func (e *reportEncoder) list(isNil bool) bool {
	if isNil {
		e.lit("null")
		return false
	}
	e.b = append(e.b, '[')
	return true
}

func (e *reportEncoder) sep(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

func (e *reportEncoder) epochReport(rep *EpochReport) {
	e.lit(`{"Epoch":`)
	e.uint(uint64(rep.Epoch))
	e.lit(`,"Keys":`)
	if e.list(rep.Keys == nil) {
		for i := range rep.Keys {
			e.sep(i)
			e.keyReport(&rep.Keys[i])
		}
		e.lit("]")
	}
	if len(rep.Seq) > 0 {
		e.lit(`,"Seq":`)
		e.seqVerdicts(rep.Seq)
	}
	e.lit("}")
}

func (e *reportEncoder) keyReport(kr *EpochKeyReport) {
	e.lit(`{"Key":`)
	e.pathKey(kr.Key)
	e.lit(`,"Route":`)
	e.int(int64(kr.Route))
	e.lit(`,"Links":`)
	if e.list(kr.Links == nil) {
		for i := range kr.Links {
			e.sep(i)
			e.linkVerdict(&kr.Links[i])
		}
		e.lit("]")
	}
	e.lit(`,"Domains":`)
	if e.list(kr.Domains == nil) {
		for i := range kr.Domains {
			e.sep(i)
			e.domainReport(&kr.Domains[i])
		}
		e.lit("]")
	}
	e.lit(`,"Blames":`)
	if e.list(kr.Blames == nil) {
		for i := range kr.Blames {
			e.sep(i)
			e.blame(&kr.Blames[i])
		}
		e.lit("]")
	}
	e.lit(`,"Bias":`)
	if e.list(kr.Bias == nil) {
		for i := range kr.Bias {
			e.sep(i)
			e.biasVerdict(&kr.Bias[i])
		}
		e.lit("]")
	}
	e.lit("}")
}

func (e *reportEncoder) prefix(p packet.Prefix) {
	e.lit(`{"Addr":[`)
	for i, o := range p.Addr {
		e.sep(i)
		e.uint(uint64(o))
	}
	e.lit(`],"Bits":`)
	e.int(int64(p.Bits))
	e.lit("}")
}

func (e *reportEncoder) pathKey(k packet.PathKey) {
	e.lit(`{"Src":`)
	e.prefix(k.Src)
	e.lit(`,"Dst":`)
	e.prefix(k.Dst)
	e.lit("}")
}

func (e *reportEncoder) linkVerdict(lv *LinkVerdict) {
	e.lit(`{"LinkID":`)
	e.int(int64(lv.LinkID))
	e.lit(`,"Up":`)
	e.uint(uint64(lv.Up))
	e.lit(`,"Down":`)
	e.uint(uint64(lv.Down))
	e.lit(`,"Violations":`)
	if e.list(lv.Violations == nil) {
		for i := range lv.Violations {
			e.sep(i)
			v := &lv.Violations[i]
			e.lit(`{"Kind":`)
			e.int(int64(v.Kind))
			e.lit(`,"PktID":`)
			e.uint(v.PktID)
			e.lit(`,"Detail":`)
			e.string(v.Detail)
			e.lit("}")
		}
		e.lit("]")
	}
	e.lit(`,"MatchedSamples":`)
	e.int(int64(lv.MatchedSamples))
	e.lit(`,"MissingDown":`)
	e.int(int64(lv.MissingDown))
	e.lit(`,"MissingUp":`)
	e.int(int64(lv.MissingUp))
	e.lit("}")
}

func (e *reportEncoder) domainReport(dr *DomainReport) {
	e.lit(`{"Name":`)
	e.string(dr.Name)
	e.lit(`,"Ingress":`)
	e.uint(uint64(dr.Ingress))
	e.lit(`,"Egress":`)
	e.uint(uint64(dr.Egress))
	e.lit(`,"Loss":{"Pairs":`)
	if e.list(dr.Loss.Pairs == nil) {
		for i := range dr.Loss.Pairs {
			e.sep(i)
			e.pair(&dr.Loss.Pairs[i])
		}
		e.lit("]")
	}
	e.lit(`,"In":`)
	e.int(dr.Loss.In)
	e.lit(`,"Lost":`)
	e.int(dr.Loss.Lost)
	e.lit(`,"Migrations":`)
	e.int(int64(dr.Loss.Migrations))
	e.lit(`},"PartialLoss":`)
	e.bool(dr.PartialLoss)
	e.lit(`,"DelaySamples":`)
	e.int(int64(dr.DelaySamples))
	e.lit(`,"DelayEstimates":`)
	if e.list(dr.DelayEstimates == nil) {
		for i := range dr.DelayEstimates {
			e.sep(i)
			e.estimate(&dr.DelayEstimates[i])
		}
		e.lit("]")
	}
	e.lit(`,"DelayEstimateErr":`)
	e.string(dr.DelayEstimateErr)
	e.lit("}")
}

func (e *reportEncoder) pair(p *aggregation.Pair) {
	e.lit(`{"A":`)
	e.aggReceipt(&p.A)
	e.lit(`,"B":`)
	e.aggReceipt(&p.B)
	e.lit("}")
}

func (e *reportEncoder) aggReceipt(r *receipt.AggReceipt) {
	e.lit(`{"path":{"key":`)
	e.pathKey(r.Path.Key)
	e.lit(`,"prev_hop":`)
	e.uint(uint64(r.Path.PrevHOP))
	e.lit(`,"next_hop":`)
	e.uint(uint64(r.Path.NextHOP))
	e.lit(`,"max_diff_ns":`)
	e.int(r.Path.MaxDiffNS)
	e.lit(`},"agg":{"first":`)
	e.uint(r.Agg.First)
	e.lit(`,"last":`)
	e.uint(r.Agg.Last)
	e.lit(`},"pkt_cnt":`)
	e.uint(r.PktCnt)
	if len(r.AggTrans) > 0 {
		e.lit(`,"agg_trans":[`)
		for i, s := range r.AggTrans {
			e.sep(i)
			e.lit(`{"pkt_id":`)
			e.uint(s.PktID)
			e.lit(`,"time_ns":`)
			e.int(s.TimeNS)
			e.lit("}")
		}
		e.lit("]")
	}
	e.lit("}")
}

func (e *reportEncoder) estimate(q *quantile.Estimate) {
	e.lit(`{"Q":`)
	e.float(q.Q)
	e.lit(`,"Point":`)
	e.float(q.Point)
	e.lit(`,"Lo":`)
	e.float(q.Lo)
	e.lit(`,"Hi":`)
	e.float(q.Hi)
	e.lit(`,"N":`)
	e.int(int64(q.N))
	e.lit(`,"Exact":`)
	e.bool(q.Exact)
	e.lit("}")
}

func (e *reportEncoder) blame(b *Blame) {
	e.lit(`{"Epoch":`)
	e.uint(uint64(b.Epoch))
	e.lit(`,"Evidence":`)
	e.int(int64(b.Evidence))
	e.lit(`,"LinkID":`)
	e.int(int64(b.LinkID))
	e.lit(`,"HOPs":`)
	if e.list(b.HOPs == nil) {
		for i, h := range b.HOPs {
			e.sep(i)
			e.uint(uint64(h))
		}
		e.lit("]")
	}
	e.lit(`,"Domains":`)
	if e.list(b.Domains == nil) {
		for i, d := range b.Domains {
			e.sep(i)
			e.string(d)
		}
		e.lit("]")
	}
	e.lit(`,"Count":`)
	e.int(int64(b.Count))
	e.lit(`,"Detail":`)
	e.string(b.Detail)
	e.lit("}")
}

func (e *reportEncoder) biasVerdict(bv *DomainBiasVerdict) {
	r := &bv.Report
	e.lit(`{"Domain":`)
	e.string(bv.Domain)
	e.lit(`,"Report":{"MarkerN":`)
	e.int(int64(r.MarkerN))
	e.lit(`,"OtherN":`)
	e.int(int64(r.OtherN))
	e.lit(`,"MarkerP90MS":`)
	e.float(r.MarkerP90MS)
	e.lit(`,"OtherP90MS":`)
	e.float(r.OtherP90MS)
	e.lit(`,"MarkerMeanMS":`)
	e.float(r.MarkerMeanMS)
	e.lit(`,"OtherMeanMS":`)
	e.float(r.OtherMeanMS)
	e.lit(`,"Suspicious":`)
	e.bool(r.Suspicious)
	e.lit("}}")
}

func (e *reportEncoder) seqVerdicts(vs []seqdetect.SeqVerdict) {
	if !e.list(vs == nil) {
		return
	}
	for i := range vs {
		e.sep(i)
		v := &vs[i]
		e.lit(`{"class":`)
		e.uint(uint64(v.Class))
		e.lit(`,"up":`)
		e.uint(uint64(v.Up))
		e.lit(`,"down":`)
		e.uint(uint64(v.Down))
		if v.Key != "" {
			e.lit(`,"key":`)
			e.string(v.Key)
		}
		if v.Domain != "" {
			e.lit(`,"domain":`)
			e.string(v.Domain)
		}
		e.lit(`,"epoch":`)
		e.uint(v.Epoch)
		e.lit(`,"frac":`)
		e.float(v.Frac)
		e.lit(`,"n":`)
		e.uint(v.N)
		e.lit(`,"stat":`)
		e.float(v.Stat)
		e.lit(`,"alpha":`)
		e.float(v.Alpha)
		e.lit(`,"beta":`)
		e.float(v.Beta)
		if len(v.Trajectory) > 0 {
			e.lit(`,"trajectory":[`)
			for j, f := range v.Trajectory {
				e.sep(j)
				e.float(f)
			}
			e.lit("]")
		}
		e.lit("}")
	}
	e.lit("]")
}
