// Package dissem realizes the paper's Assumption 2 (§2.3): "there
// exists a way for a domain in path P to disseminate receipts to all
// other domains in P, such that the authenticity and integrity of each
// received receipt is guaranteed." Receipts are batched into bundles,
// one per sealed (HOP, epoch), canonically encoded. The signed unit is a
// payload: one epoch's bundles from every HOP one ed25519 key speaks
// for, laid end to end in ascending HOP order and signed once — the
// paper gives each domain one key pair, so a domain's sealed epoch costs
// one signature. A key that speaks for one HOP signs one-bundle
// payloads. Payloads are served over HTTP (the paper's suggested
// realization is an administrative web-site over HTTPS; wrap the
// handler in a TLS listener for the full equivalent).
package dissem

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"vpm/internal/receipt"
)

// Bundle is one reporting interval's worth of receipts from one HOP.
type Bundle struct {
	// Origin is the reporting HOP.
	Origin receipt.HOPID
	// Seq is the bundle sequence number (monotonic per origin).
	Seq uint64
	// Epoch tags the reporting interval the receipts were sealed in —
	// the continuous pipeline routes bundles into per-epoch store
	// segments by it. Batch (single-interval) producers leave it 0.
	Epoch uint64
	// Samples and Aggs are the interval's receipts.
	Samples []receipt.SampleReceipt
	Aggs    []receipt.AggReceipt
}

// bundleMagic guards the canonical encoding. The last byte is the
// layout version; there is one version — any other magic is corrupt.
// VPM3: the receipts are in receipt's compact layout (varint-delta
// record times, varint HOPs and counts).
var bundleMagic = [4]byte{'V', 'P', 'M', '3'}

// ErrCorruptBundle reports a malformed bundle encoding.
var ErrCorruptBundle = errors.New("dissem: corrupt bundle")

// WireSize returns the exact encoded size. It visits every record (the
// receipt layout is variable-length), so encoders append instead of
// sizing first.
func (b *Bundle) WireSize() int {
	return bundleHeaderSize + receipt.WireSize(b.Samples, b.Aggs)
}

// AppendEncode appends the canonical binary form to dst and returns
// the extended slice. Sealing loops hand it a grow-only buffer so
// steady-state encoding allocates nothing.
func (b *Bundle) AppendEncode(dst []byte) []byte {
	dst = append(dst, bundleMagic[:]...)
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(b.Origin))
	binary.LittleEndian.PutUint64(hdr[4:12], b.Seq)
	binary.LittleEndian.PutUint64(hdr[12:20], b.Epoch)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(b.Samples)))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(b.Aggs)))
	dst = append(dst, hdr[:]...)
	for _, s := range b.Samples {
		dst = s.AppendBinary(dst)
	}
	for _, a := range b.Aggs {
		dst = a.AppendBinary(dst)
	}
	return dst
}

// bundleHeaderSize is the fixed prefix of the canonical encoding:
// magic[4] origin[4] seq[8] epoch[8] nSamples[4] nAggs[4].
const bundleHeaderSize = 32

// headerClaims reads the seq and epoch an encoding's header claims,
// unauthenticated; data must hold at least bundleHeaderSize bytes.
func headerClaims(data []byte) (seq, epoch uint64) {
	return binary.LittleEndian.Uint64(data[8:16]), binary.LittleEndian.Uint64(data[16:24])
}

// claimedEpoch returns the epoch a payload's first bundle header claims,
// unauthenticated, or 0 when the payload is too short to hold a header.
func claimedEpoch(payload []byte) uint64 {
	if len(payload) < bundleHeaderSize {
		return 0
	}
	_, epoch := headerClaims(payload)
	return epoch
}

// The smallest encodings a receipt of each kind can have — what bounds
// a header's receipt counts by the bytes that follow it.
var (
	minSampleWire = uint64(receipt.WireSize(make([]receipt.SampleReceipt, 1), nil))
	minAggWire    = uint64(receipt.WireSize(nil, make([]receipt.AggReceipt, 1)))
)

// DecodePayload parses a signed payload: one or more canonical bundle
// encodings laid end to end. Malformed input, an empty payload
// included, returns an error wrapping ErrCorruptBundle, never a panic
// (FuzzDecodeBundle), and never allocates more than a small multiple
// of len(payload): receipt counts the remaining bytes could not hold
// are refused before anything is allocated for them.
func DecodePayload(payload []byte) ([]*Bundle, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrCorruptBundle)
	}
	var out []*Bundle
	for len(payload) > 0 {
		b, rest, err := decodeNext(payload)
		if err != nil {
			return nil, fmt.Errorf("bundle %d: %w", len(out), err)
		}
		out = append(out, b)
		payload = rest
	}
	return out, nil
}

// decodeNext parses the bundle encoding at the start of data and
// returns the bytes after it. The receipts are decoded in place
// (receipt.DecodeReceipts): a bundle costs its own allocation and a
// slice and a record slab per kind, however many receipts it holds.
func decodeNext(data []byte) (*Bundle, []byte, error) {
	if len(data) < bundleHeaderSize || [4]byte(data[0:4]) != bundleMagic {
		return nil, nil, ErrCorruptBundle
	}
	b := &Bundle{Origin: receipt.HOPID(binary.LittleEndian.Uint32(data[4:8]))}
	b.Seq, b.Epoch = headerClaims(data)
	nSamples := binary.LittleEndian.Uint32(data[24:28])
	nAggs := binary.LittleEndian.Uint32(data[28:32])
	rest := data[bundleHeaderSize:]
	if uint64(nSamples)*minSampleWire+uint64(nAggs)*minAggWire > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: header claims %d samples and %d aggs in %d bytes", ErrCorruptBundle, nSamples, nAggs, len(rest))
	}
	var err error
	if b.Samples, b.Aggs, rest, err = receipt.DecodeReceipts(rest, nSamples, nAggs); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptBundle, err)
	}
	return b, rest, nil
}

// SignedBundle is a signed payload — one or more bundle encodings laid
// end to end (DecodePayload) — plus its ed25519 signature.
type SignedBundle struct {
	Payload []byte
	Sig     []byte
}

// Signer holds a HOP's signing key.
type Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSigner derives a signer deterministically from a 32-byte seed
// (deterministic keys keep simulations reproducible; production would
// use crypto/rand via ed25519.GenerateKey).
func NewSigner(seed [32]byte) *Signer {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Signer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Public returns the verification key to register with peers.
func (s *Signer) Public() ed25519.PublicKey { return s.pub }

// Sign encodes the bundles end to end, in the order given, and signs
// the payload once. One bundle gives exactly that bundle's Encode bytes.
// The bundles are encoded into a pooled buffer and the payload copied
// out at its exact size: one pass over the records, and a retained
// payload pins no spare capacity.
func (s *Signer) Sign(bundles ...*Bundle) SignedBundle {
	buf := getFrameBuffer()
	for _, b := range bundles {
		*buf = b.AppendEncode(*buf)
	}
	payload := bytes.Clone(*buf)
	putFrameBuffer(buf)
	return SignedBundle{Payload: payload, Sig: ed25519.Sign(s.priv, payload)}
}

// ErrBadSignature reports signature verification failure.
var ErrBadSignature = errors.New("dissem: bad signature")

// The ways an authentic payload can misstate the HOPs its key speaks
// for. Each reaches a consumer inside a *BundleError.
var (
	// ErrWrongOrigin: a bundle's origin is not registered under the key
	// that signed the payload.
	ErrWrongOrigin = errors.New("dissem: bundle origin mismatch")
	// ErrMixedEpochs: the payload's bundles are tagged with different
	// epochs.
	ErrMixedEpochs = errors.New("dissem: payload mixes epochs")
	// ErrDuplicateOrigin: a HOP's bundle appears twice, or the bundles
	// are not in ascending HOP order.
	ErrDuplicateOrigin = errors.New("dissem: payload repeats or reorders a HOP")
	// ErrMissingOrigin: a HOP registered under the key has no bundle in
	// the payload.
	ErrMissingOrigin = errors.New("dissem: payload omits a HOP")
)

// Verify checks a one-bundle payload against pub and the expected
// origin HOP, returning the decoded bundle. A forged or corrupted
// signature returns ErrBadSignature; a bundle claiming a different
// origin than the key's HOP returns ErrWrongOrigin (match both with
// errors.Is).
func Verify(pub ed25519.PublicKey, origin receipt.HOPID, sb SignedBundle) (*Bundle, error) {
	bundles, err := open(pub, []receipt.HOPID{origin}, published{sb: sb}, nil)
	if err != nil {
		return nil, err
	}
	return bundles[0], nil
}

// open is the one authentication step: it checks p's signature under
// pub — unless the server's signer already verified these very bytes
// under a byte-equal key — counting the check in verifications if
// non-nil, decodes the payload, and refuses it unless it holds exactly
// one bundle per HOP of group (ascending), all tagged with one epoch.
// When the signer verified the bytes it also decoded them, and the
// first open to find those bundles parked takes them instead of
// decoding: each is handed over once, since whoever receives bundles
// owns them.
func open(pub ed25519.PublicKey, group []receipt.HOPID, p published, verifications *atomic.Int64) ([]*Bundle, error) {
	var bundles []*Bundle
	if p.verified == nil || !slices.Equal(p.verified, pub) {
		if verifications != nil {
			verifications.Add(1)
		}
		if !ed25519.Verify(pub, p.sb.Payload, p.sb.Sig) {
			return nil, ErrBadSignature
		}
	} else if p.parked != nil {
		if taken := p.parked.Swap(nil); taken != nil {
			bundles = *taken
		}
	}
	if bundles == nil {
		var err error
		if bundles, err = DecodePayload(p.sb.Payload); err != nil {
			return nil, err
		}
	}
	for i, b := range bundles {
		switch {
		case !slices.Contains(group, b.Origin):
			return nil, fmt.Errorf("%w: %v is not registered under the key of %v", ErrWrongOrigin, b.Origin, group)
		case b.Epoch != bundles[0].Epoch:
			return nil, fmt.Errorf("%w: %v's bundle is tagged %d, %v's %d", ErrMixedEpochs, b.Origin, b.Epoch, bundles[0].Origin, bundles[0].Epoch)
		case i > 0 && b.Origin <= bundles[i-1].Origin:
			return nil, fmt.Errorf("%w: %v follows %v", ErrDuplicateOrigin, b.Origin, bundles[i-1].Origin)
		}
	}
	// Every origin is a distinct member of group, so a shortfall is a
	// missing HOP; the first one names it.
	for i, h := range group {
		if i >= len(bundles) || bundles[i].Origin != h {
			return nil, fmt.Errorf("%w: no bundle from %v", ErrMissingOrigin, h)
		}
	}
	return bundles, nil
}

// Registry maps HOPs to their registered verification keys. HOPs whose
// keys are byte-equal belong to one key's group: their payloads come
// signed together.
type Registry map[receipt.HOPID]ed25519.PublicKey

// Group returns the HOPs registered under hop's key, ascending — hop
// included — or nil when hop has no key.
func (r Registry) Group(hop receipt.HOPID) []receipt.HOPID {
	pub, ok := r[hop]
	if !ok {
		return nil
	}
	var out []receipt.HOPID
	for h, k := range r {
		if slices.Equal(k, pub) {
			out = append(out, h)
		}
	}
	slices.Sort(out)
	return out
}
