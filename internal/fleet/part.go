package fleet

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"vpm/internal/core"
	"vpm/internal/packet"
)

// Shard parts: how a verifier process hands its partial verdicts to
// the merge step. A canonical epoch report (core.EncodeEpochReport) is
//
//	{"Epoch":N,"Keys":[f0,f1,…]}      ("Keys":null for an idle epoch)
//
// where each fᵢ is the encoding of one EpochKeyReport and does not
// depend on its neighbours. A part therefore keeps every report as its
// per-key fragments beside their (Key, Route) sort keys, and the merge
// never looks inside a fragment: the union report is the same frame
// around the shards' fragments in (key, route) order, byte for byte.
// The part file on disk is {"shard","shards","reports":[…canonical
// reports…]} — the fragments re-assembled — so the byte-identity
// guarantee survives the process boundary with nothing re-marshalled.

// ShardOutput is one verifier process's complete output.
type ShardOutput struct {
	// Shard / Shards locate this part in the tier; the merge refuses
	// mixed tiers.
	Shard  int
	Shards int
	// epochs holds one entry per epoch in ascending epoch order — all
	// epochs 0..Terminal, including ones where this shard owned no
	// traffic.
	epochs []shardEpoch
}

// shardEpoch is one epoch report, split at its key boundaries.
type shardEpoch struct {
	epoch core.EpochID
	// keys is nil when the report's Keys were nil (canonical null).
	keys []keyFragment
	// seq is the canonical encoding of the report's sequential
	// verdicts, nil when it had none. It is carried so the part file
	// loses nothing; the merge refuses a part that has one.
	seq json.RawMessage
}

// keyFragment is the canonical encoding of one EpochKeyReport and the
// two fields of it the merge orders by.
type keyFragment struct {
	key   packet.PathKey
	route int
	json  json.RawMessage
}

// NewShardOutput encodes a verifier's reports canonically, one
// fragment per key report, with the encoder that renders whole reports.
// An epoch's fragments are encoded back to back into a scratch buffer
// and cut from one exact-size copy of it.
func NewShardOutput(shards, shard int, reports []core.EpochReport) (*ShardOutput, error) {
	out := &ShardOutput{Shard: shard, Shards: shards, epochs: make([]shardEpoch, len(reports))}
	var (
		scratch []byte
		ends    []int // where each fragment of the current epoch ends
		err     error
	)
	for i := range reports {
		rep := &reports[i]
		ep := &out.epochs[i]
		ep.epoch = rep.Epoch
		scratch, ends = scratch[:0], ends[:0]
		for k := range rep.Keys {
			if scratch, err = core.AppendEpochKeyReport(scratch, &rep.Keys[k]); err != nil {
				return nil, err
			}
			ends = append(ends, len(scratch))
		}
		if len(rep.Seq) > 0 {
			if scratch, err = core.AppendSeqVerdicts(scratch, rep.Seq); err != nil {
				return nil, err
			}
		}
		buf := bytes.Clone(scratch)
		if rep.Keys != nil {
			ep.keys = make([]keyFragment, len(rep.Keys))
		}
		start := 0
		for k, end := range ends {
			ep.keys[k] = keyFragment{key: rep.Keys[k].Key, route: rep.Keys[k].Route, json: buf[start:end:end]}
			start = end
		}
		if len(rep.Seq) > 0 {
			ep.seq = buf[start:]
		}
	}
	return out, nil
}

// reportSize is the exact length appendReport adds.
func (ep *shardEpoch) reportSize() int {
	var digits [20]byte
	n := len(`{"Epoch":`) + len(strconv.AppendUint(digits[:0], uint64(ep.epoch), 10)) + len(`,"Keys":`)
	if ep.keys == nil {
		n += len(`null`)
	} else {
		n += len(`[]`) + max(len(ep.keys)-1, 0)
		for i := range ep.keys {
			n += len(ep.keys[i].json)
		}
	}
	if ep.seq != nil {
		n += len(`,"Seq":`) + len(ep.seq)
	}
	return n + len(`}`)
}

// appendReport appends the canonical epoch report: the frame around
// the fragments, in the order they are held.
func (ep *shardEpoch) appendReport(dst []byte) []byte {
	dst = append(dst, `{"Epoch":`...)
	dst = strconv.AppendUint(dst, uint64(ep.epoch), 10)
	dst = append(dst, `,"Keys":`...)
	if ep.keys == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range ep.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, ep.keys[i].json...)
		}
		dst = append(dst, ']')
	}
	if ep.seq != nil {
		dst = append(dst, `,"Seq":`...)
		dst = append(dst, ep.seq...)
	}
	return append(dst, '}')
}

// MarshalJSON renders the part document: shard, shards, and the
// canonical report of every epoch.
func (o *ShardOutput) MarshalJSON() ([]byte, error) {
	var head [64]byte
	h := append(head[:0], `{"shard":`...)
	h = strconv.AppendInt(h, int64(o.Shard), 10)
	h = append(h, `,"shards":`...)
	h = strconv.AppendInt(h, int64(o.Shards), 10)
	h = append(h, `,"reports":[`...)
	n := len(h) + max(len(o.epochs)-1, 0) + len(`]}`)
	for i := range o.epochs {
		n += o.epochs[i].reportSize()
	}
	dst := append(make([]byte, 0, n), h...)
	for i := range o.epochs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = o.epochs[i].appendReport(dst)
	}
	return append(dst, `]}`...), nil
}

// WriteFile persists the part atomically (temp file + rename), so a
// supervisor never reads a torn part from a crashed verifier.
func (o *ShardOutput) WriteFile(path string) error {
	data, err := o.MarshalJSON()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".part-*")
	if err != nil {
		return err
	}
	//lint:ignore fsyncdiscipline part files are re-derivable fleet outputs, not the durability-bearing segment store — a torn write is re-run, not recovered
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadShardFile loads one part. Reports are split at their key
// boundaries and each fragment is probed for its (Key, Route) only —
// the fragments' bytes are kept as written.
func ReadShardFile(path string) (*ShardOutput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Shard   int `json:"shard"`
		Shards  int `json:"shards"`
		Reports []struct {
			Epoch core.EpochID
			Keys  []json.RawMessage
			Seq   json.RawMessage
		} `json:"reports"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("fleet: part %s: %w", path, err)
	}
	o := &ShardOutput{Shard: file.Shard, Shards: file.Shards, epochs: make([]shardEpoch, len(file.Reports))}
	for i, rep := range file.Reports {
		ep := &o.epochs[i]
		ep.epoch, ep.seq = rep.Epoch, rep.Seq
		if rep.Keys != nil {
			ep.keys = make([]keyFragment, len(rep.Keys))
		}
		for k, raw := range rep.Keys {
			var probe struct {
				Key   packet.PathKey
				Route int
			}
			if err := json.Unmarshal(raw, &probe); err != nil {
				return nil, fmt.Errorf("fleet: part %s: epoch %d key %d: %w", path, rep.Epoch, k, err)
			}
			ep.keys[k] = keyFragment{key: probe.Key, route: probe.Route, json: raw}
		}
	}
	return o, nil
}

// MergeShardOutputs recombines a full tier's parts into the union
// verdict stream: one canonical epoch-report encoding per epoch,
// ascending — byte for byte what core.EncodeEpochReport renders for
// the struct-level merge of the same parts (the tests' oracle,
// mergeEpochReports), without decoding a fragment. Parts that cannot form one stream — a tier that is
// incomplete, mixed or has a repeated shard, unequal epoch ranges, a
// (key, route) two shards both report, sequential verdicts — return
// an error wrapping core.ErrBadMerge.
func MergeShardOutputs(parts []*ShardOutput) ([]json.RawMessage, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no shard outputs", core.ErrBadMerge)
	}
	shards := parts[0].Shards
	if len(parts) != shards {
		return nil, fmt.Errorf("%w: got %d parts for a %d-shard tier", core.ErrBadMerge, len(parts), shards)
	}
	seen := make([]bool, shards)
	for _, p := range parts {
		if p.Shards != shards {
			return nil, fmt.Errorf("%w: mixed tiers: part from %d-shard tier, want %d", core.ErrBadMerge, p.Shards, shards)
		}
		if p.Shard < 0 || p.Shard >= shards || seen[p.Shard] {
			return nil, fmt.Errorf("%w: bad or duplicate shard index %d", core.ErrBadMerge, p.Shard)
		}
		seen[p.Shard] = true
		if len(p.epochs) != len(parts[0].epochs) {
			return nil, fmt.Errorf("%w: shard %d covers %d epochs, shard %d covers %d", core.ErrBadMerge,
				p.Shard, len(p.epochs), parts[0].Shard, len(parts[0].epochs))
		}
	}
	widest := 0
	for e := range parts[0].epochs {
		n := 0
		for _, p := range parts {
			n += len(p.epochs[e].keys)
		}
		widest = max(widest, n)
	}
	out := make([]json.RawMessage, 0, len(parts[0].epochs))
	union := make([]keyFragment, 0, widest) // one epoch's fragments from every shard; reused
	for e := range parts[0].epochs {
		epoch := parts[0].epochs[e].epoch
		union = union[:0]
		for _, p := range parts {
			ep := &p.epochs[e]
			if ep.epoch != epoch {
				return nil, fmt.Errorf("%w: shard %d reports epoch %d at index %d, shard %d reports %d", core.ErrBadMerge,
					p.Shard, ep.epoch, e, parts[0].Shard, epoch)
			}
			if ep.seq != nil {
				return nil, fmt.Errorf("%w: shard %d epoch %d carries sequential verdicts", core.ErrBadMerge, p.Shard, epoch)
			}
			union = append(union, ep.keys...)
		}
		slices.SortFunc(union, func(a, b keyFragment) int {
			if c := a.key.Compare(b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.route, b.route)
		})
		for i := 1; i < len(union); i++ {
			if union[i].key == union[i-1].key && union[i].route == union[i-1].route {
				return nil, fmt.Errorf("%w: key %v route %d reported by two shards", core.ErrBadMerge, union[i].key, union[i].route)
			}
		}
		merged := shardEpoch{epoch: epoch, keys: union}
		if len(union) == 0 {
			merged.keys = nil // an idle epoch spells null, as a single process does
		}
		out = append(out, merged.appendReport(make([]byte, 0, merged.reportSize())))
	}
	return out, nil
}

// Fingerprint digests a verdict stream: sha256 over the newline-joined
// canonical report encodings, first 8 bytes hex — the same convention
// the topology experiments use. Equal fingerprints at different shard
// counts are the acceptance criterion.
func Fingerprint(reports []json.RawMessage) string {
	h := sha256.New()
	for _, r := range reports {
		h.Write(r)
		h.Write([]byte("\n"))
	}
	sum := h.Sum(nil)
	return fmt.Sprintf("%x", sum[:8])
}

// EncodeReports renders in-process reports canonically — the
// single-process path to a fingerprintable stream, and the reference
// the fragment merge is compared against: it shares no code with it.
func EncodeReports(reports []core.EpochReport) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(reports))
	for i := range reports {
		b, err := core.EncodeEpochReport(reports[i])
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
