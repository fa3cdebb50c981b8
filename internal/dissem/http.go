package dissem

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vpm/internal/receipt"
)

// BaseHeader is the response header a Server sets on every fetch: the
// position of the oldest bundle it still retains. A client whose cursor
// lies below it has permanently missed bundles (DropThrough pruned
// them) and receives a GapError instead of a silently clamped stream;
// a response without it is not a feed.
const BaseHeader = "X-VPM-Base"

// ViewerHeader carries the requesting verifier's identity on fetches,
// so simulations can model per-verifier misbehavior (equivocation).
// Honest servers ignore it.
const ViewerHeader = "X-VPM-Viewer"

// DefaultFetchTimeout bounds a fetch when the caller supplies neither
// an HTTP client nor a context deadline. Without it a single hung HOP
// server stalls collection forever (http.DefaultClient has no
// timeout).
var DefaultFetchTimeout = 30 * time.Second

// GapError reports a cursor fetch reaching into a pruned range: the
// server's retention base has moved past the requested since, so
// bundles [Since, Base) are permanently gone. The caller decides
// whether to resume from Base (accepting the loss) or to treat the
// origin as having destroyed evidence.
type GapError struct {
	Origin      receipt.HOPID
	Since, Base uint64
}

// Error implements error.
func (e *GapError) Error() string {
	return fmt.Sprintf("dissem: %v pruned bundles [%d, %d); cursor %d cannot be served completely",
		e.Origin, e.Since, e.Base, e.Since)
}

// BundleError wraps a payload's authentication failure with the origin
// the feed was fetched for, the payload's position in the server's log
// (Seq) and its epoch — the server's tag on the bus, the first bundle
// header's claim over HTTP — so a consumer can classify the evidence
// (attributed to the right interval, against every HOP the feed's key
// speaks for) and resume at Seq+1 instead of stalling on the poisoned
// payload. Both carriers return it, permanent for Retry, for the same
// payloads.
type BundleError struct {
	Origin receipt.HOPID
	Seq    uint64
	Epoch  uint64
	Err    error
}

// Error implements error.
func (e *BundleError) Error() string {
	return fmt.Sprintf("dissem: bundle %d from %v: %v", e.Seq, e.Origin, e.Err)
}

// Unwrap exposes the underlying verification failure.
func (e *BundleError) Unwrap() error { return e.Err }

// The HTTP feed is a sequence of frames, one per signed payload, under
// FrameContentType, an exact Content-Length and BaseHeader:
//
//	payloadLen[4] skip[4] payload[payloadLen] sig[64]
//
// (little-endian). The payload is the bundles' AppendEncode bytes laid
// end to end exactly as signed, so the wire carries the signed bytes
// plus FrameHeaderSize per payload; a one-HOP server's frames carry one
// bundle each. skip counts the retained positions the server withheld
// before the frame (from since, then from the previous frame), so each
// frame's log position — the cursor, as on the bus — is implicit and
// strictly increasing; the seq the payload claims is only evidence.
const (
	// FrameContentType names the framed feed. A response carrying any
	// other type is refused: version skew reads as "this server does not
	// speak the frame format", never as a garbage length. v3: a payload
	// holds every bundle of one key's sealed epoch.
	FrameContentType = "application/vnd.vpm.bundle-frames.v3"
	// FrameHeaderSize is the per-payload framing overhead.
	FrameHeaderSize = 8
	// MaxBundleBytes bounds the payload a client accepts in one frame.
	// One domain's sealed epoch is kilobytes in the benchmark's fleet
	// and, by estimate, a few megabytes for a core domain of the
	// 2²⁰-key fleet; a frame announcing more than this is misbehaviour
	// by the origin, refused before anything is buffered for it.
	MaxBundleBytes = 64 << 20
)

// The ways a feed response can violate the frame format. Each reaches
// the caller inside a *FrameError naming the origin.
var (
	// ErrNotFramed: the response is not a framed feed at all — wrong
	// Content-Type, no Content-Length, or no well-formed BaseHeader.
	ErrNotFramed = errors.New("dissem: response is not a framed bundle feed")
	// ErrFrameTooLarge: a frame announces a payload above
	// MaxBundleBytes.
	ErrFrameTooLarge = errors.New("dissem: frame exceeds MaxBundleBytes")
	// ErrBadFrame: a frame header contradicts the format or the
	// response's Content-Length (overrun, trailing bytes, a skip that
	// wraps the cursor).
	ErrBadFrame = errors.New("dissem: malformed frame")
	// ErrTruncatedFrame: the body ended (or the read failed) inside a
	// frame the Content-Length promised.
	ErrTruncatedFrame = errors.New("dissem: truncated frame")
)

// FrameError reports a feed response that breaks the frame format:
// which origin served it, which frame of the response (0-based; -1 for
// the response headers), and the violation (one of the Err* frame
// sentinels, match with errors.Is). Violations a retry cannot fix —
// everything but a truncated read, which is how a restarting peer
// looks — are marked Permanent.
type FrameError struct {
	Origin receipt.HOPID
	Frame  int
	Err    error
}

// Error implements error.
func (e *FrameError) Error() string {
	if e.Frame < 0 {
		return fmt.Sprintf("dissem: feed of %v: %v", e.Origin, e.Err)
	}
	return fmt.Sprintf("dissem: feed of %v, frame %d: %v", e.Origin, e.Frame, e.Err)
}

// Unwrap exposes the violation.
func (e *FrameError) Unwrap() error { return e.Err }

// Server publishes the signed receipt payloads of the HOPs one key
// speaks for over HTTP. Mount it at a path of your choice; GET ?since=N
// returns all payloads at log positions >= N as length-prefixed frames
// (FrameContentType): each payload exactly as signed, then its
// signature. Wrap in TLS for the paper's HTTPS web-site realization.
//
// Every HOP publishes every epoch in order, so once the last of the
// Server's HOPs has published epoch e, the HOPs' epoch-e bundles form
// the next payload, in ascending HOP order, and its log position is the
// next seq. A one-HOP Server (NewServer) makes one payload per publish.
//
// Publishing is a hand-off (§7's Collector/Processor split): the
// sealing goroutine only queues its bundle, and the Server's signer
// goroutine encodes and signs each complete payload behind it, in seq
// order. The signer runs while unsigned entries are queued and exits
// when the queue drains, so a Server needs no Close. Every fetch waits
// for the signatures of the payloads it selected, so what is served,
// and in which order, does not depend on how far the signer has got.
//
// Once a bus consumer has fetched from the Server, the signer also
// authenticates ahead for it: each payload signed from then on is
// verified under the key that consumer's registry holds for the HOP it
// named and decoded, so the consumer's fetch only checks
// (Bus.CollectSinceAs). A Server no bus consumer fetches from signs and
// nothing more.
type Server struct {
	hops   []receipt.HOPID // ascending
	signer *Signer
	// aheadKey is the key the first bus consumer's registry holds for
	// the HOP it named; nil until then.
	aheadKey atomic.Pointer[ed25519.PublicKey]
	// aheadChecks counts the signatures the signer verified ahead.
	aheadChecks atomic.Int64

	mu      sync.RWMutex
	bundles []*entry // the retained payloads
	base    uint64   // Seq of bundles[0]; earlier payloads were dropped
	nextSeq uint64
	// pending holds, per HOP of hops, the bundles published but not yet
	// part of a payload, oldest first.
	pending [][]*Bundle
	tamper  BundleTamper // simulation hook for dissemination attacks
	// unsigned holds the entries awaiting the signer, oldest first. An
	// entry leaves it only once signed, so the signer goroutine runs
	// exactly while it is non-empty.
	unsigned []*entry
}

// published is one signed payload with its log position and the epoch
// it was tagged with, kept in the clear so the tamper sees them without
// re-decoding the payload. verified is the key the signer verified sb
// under, nil if it did not; serve clears it whenever a tamper is
// installed, since sb may then no longer be the bytes verified. parked
// is where the bundles the signer decoded from the verified bytes wait
// for the first fetch that takes them (open); serve sets it only when no
// tamper is installed. A frame read off the HTTP feed is one too,
// without an epoch or parked bundles: receive names the payload's own
// claim on both carriers.
type published struct {
	seq, epoch uint64
	sb         SignedBundle
	verified   ed25519.PublicKey
	parked     *atomic.Pointer[[]*Bundle]
}

// entry is one retained payload. seq and epoch are fixed when it is
// complete; sb, verified and decoded are written by the signer before it
// closes signed and read only after.
type entry struct {
	published
	signed chan struct{}
	// bundles are the receipts to encode, in ascending HOP order; the
	// signer drops them once signed.
	bundles []*Bundle
	// decoded holds sb's bundles as the signer decoded them after
	// verifying sb ahead, until a fetch takes them; they go with the
	// entry when DropThrough discards it.
	decoded atomic.Pointer[[]*Bundle]
}

// NewServer builds a publisher for one HOP: every publish is a payload.
func NewServer(hop receipt.HOPID, signer *Signer) *Server {
	return NewDomainServer([]receipt.HOPID{hop}, signer)
}

// NewDomainServer builds the publisher for the HOPs signer's key
// speaks for — a domain's HOPs under the paper's one key pair per
// domain. hops must be non-empty and distinct.
func NewDomainServer(hops []receipt.HOPID, signer *Signer) *Server {
	hops = slices.Sorted(slices.Values(hops))
	if len(hops) == 0 || len(slices.Compact(slices.Clone(hops))) != len(hops) {
		panic(fmt.Sprintf("dissem: a server needs distinct HOPs, got %v", hops))
	}
	return &Server{hops: hops, signer: signer, pending: make([][]*Bundle, len(hops))}
}

// HOPs returns the HOPs the server publishes for, ascending.
func (s *Server) HOPs() []receipt.HOPID { return s.hops }

// PublishEpoch publishes a one-HOP server's sealed epoch: Publish for
// its only HOP.
func (s *Server) PublishEpoch(epoch uint64, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) uint64 {
	if len(s.hops) != 1 {
		panic(fmt.Sprintf("dissem: PublishEpoch on a server for %v names no HOP; use Publish", s.hops))
	}
	return s.Publish(s.hops[0], epoch, samples, aggs)
}

// Publish retains hop's sealed epoch as its next bundle, tagged with the
// epoch so subscribers can route it into the matching window segment,
// and returns the log position of the payload the bundle will travel
// in. Each of the server's HOPs publishes its epochs in the same order;
// the payload is complete, and queued for signing, once every HOP has
// published it. Publish returns before anything is encoded or signed:
// the Server takes ownership of samples, aggs and every record they
// reference, and the caller must not modify them afterwards. A fetch
// issued after the payload is complete serves it, waiting for its
// signature if need be.
func (s *Server) Publish(hop receipt.HOPID, epoch uint64, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) uint64 {
	i, ok := slices.BinarySearch(s.hops, hop)
	if !ok {
		panic(fmt.Sprintf("dissem: server for %v publishes no bundle for %v", s.hops, hop))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq + uint64(len(s.pending[i]))
	s.pending[i] = append(s.pending[i], &Bundle{Origin: hop, Epoch: epoch, Samples: samples, Aggs: aggs})
	for !slices.ContainsFunc(s.pending, func(q []*Bundle) bool { return len(q) == 0 }) {
		s.completeHeads()
	}
	return seq
}

// completeHeads moves the oldest pending bundle of every HOP into the
// next payload and queues it for signing. The caller holds mu.
func (s *Server) completeHeads() {
	e := &entry{
		published: published{seq: s.nextSeq, epoch: s.pending[0][0].Epoch},
		signed:    make(chan struct{}),
		bundles:   make([]*Bundle, len(s.hops)),
	}
	s.nextSeq++
	for _, q := range s.pending {
		if b := q[0]; b.Epoch != e.epoch {
			panic(fmt.Sprintf("dissem: %v published epoch %d where %v published %d: a server's HOPs publish their epochs in one order", b.Origin, b.Epoch, s.hops[0], e.epoch))
		}
	}
	for i, q := range s.pending {
		b := q[0]
		b.Seq = e.seq
		e.bundles[i] = b
		copy(q, q[1:])
		q[len(q)-1] = nil
		s.pending[i] = q[:len(q)-1]
	}
	s.bundles = append(s.bundles, e)
	s.unsigned = append(s.unsigned, e)
	if len(s.unsigned) == 1 {
		go s.signQueued()
	}
}

// signQueued is the signer goroutine: it encodes and signs the queued
// entries oldest first and returns once the queue is empty. Once a bus
// consumer has recorded its key, each signature is also verified under
// that key, and a payload that verifies is decoded and its bundles
// parked on the entry, before the entry is released. It decodes the
// signed bytes, not the bundles published: what a fetch takes is what
// its own decode would have produced. An entry DropThrough already
// discarded is signed all the same; nobody waits for it.
func (s *Server) signQueued() {
	s.mu.Lock()
	for len(s.unsigned) > 0 {
		e := s.unsigned[0]
		s.mu.Unlock()
		e.sb = s.signer.Sign(e.bundles...)
		e.bundles = nil
		if key := s.aheadKey.Load(); key != nil {
			s.aheadChecks.Add(1)
			if ed25519.Verify(*key, e.sb.Payload, e.sb.Sig) {
				e.verified = *key
				if bundles, err := DecodePayload(e.sb.Payload); err == nil {
					e.decoded.Store(&bundles)
				}
			}
		}
		close(e.signed)
		s.mu.Lock()
		s.unsigned[0] = nil
		s.unsigned = s.unsigned[1:]
	}
	s.mu.Unlock()
}

// BundleCount returns how many payloads the server currently retains.
func (s *Server) BundleCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bundles)
}

// Base returns the sequence number of the oldest retained payload —
// everything below it was pruned by DropThrough.
func (s *Server) Base() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// DropThrough discards every retained payload with Seq <= seq — the
// publisher-side garbage collection of continuous operation. Sequence
// numbers are stable across drops: later fetches with ?since continue
// to work, and a fetch reaching into the dropped range gets a *GapError
// on either carrier, naming the new base, instead of a silently
// shortened stream. Without periodic drops an endless epoch stream
// accumulates in the server forever.
func (s *Server) DropThrough(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.base {
		return
	}
	n := seq - s.base + 1
	if n > uint64(len(s.bundles)) {
		n = uint64(len(s.bundles))
	}
	s.bundles = append(s.bundles[:0:0], s.bundles[n:]...)
	s.base += n
}

// serve is the one serve selection, behind every carrier: the
// retention base and the retained payloads at positions ≥ since exactly
// as viewer is served them — tamper applied, withheld payloads left out.
// The entries are selected under the read lock; the wait for their
// signatures and the tamper run after it is released, so neither a
// Publish nor the signer ever waits behind a fetch.
func (s *Server) serve(viewer string, since uint64) (base uint64, out []published) {
	s.mu.RLock()
	base, tamper := s.base, s.tamper
	var selected []*entry
	if start := max(since, base) - base; start < uint64(len(s.bundles)) {
		selected = append(selected, s.bundles[start:]...)
	}
	s.mu.RUnlock()
	out = make([]published, 0, len(selected))
	for _, e := range selected {
		<-e.signed
		p := e.published
		if tamper == nil {
			p.parked = &e.decoded
		} else {
			p.verified = nil
			var ok bool
			if p.sb, ok = tamper.Serve(viewer, p.seq, p.epoch, p.sb); !ok {
				continue
			}
		}
		out = append(out, p)
	}
	return base, out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = v
	}
	viewer := r.URL.Query().Get("viewer")
	if viewer == "" {
		viewer = r.Header.Get(ViewerHeader)
	}
	base, out := s.serve(viewer, since)
	// The base is always advertised: a cursor below it has permanently
	// missed bundles, and silently clamping would hide that from the
	// lagging verifier (Fetch promises all bundles at positions ≥ since).
	w.Header().Set(BaseHeader, strconv.FormatUint(base, 10))
	size := 0
	for _, p := range out {
		size += FrameHeaderSize + len(p.sb.Payload) + len(p.sb.Sig)
	}
	w.Header().Set("Content-Type", FrameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(size))
	var hdr [FrameHeaderSize]byte
	pos := max(since, base) // the first frame's skip counts from here
	for _, p := range out {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p.sb.Payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(p.seq-pos)) // a server retains far fewer than 2³² bundles
		pos = p.seq + 1
		for _, part := range [][]byte{hdr[:], p.sb.Payload, p.sb.Sig} {
			if _, err := w.Write(part); err != nil {
				return // connection-level failure; nothing more to do
			}
		}
	}
}

// Client fetches and authenticates bundles from servers.
type Client struct {
	// HTTP is the underlying client. nil selects a default client with
	// DefaultFetchTimeout — never the timeout-less http.DefaultClient,
	// which would let one hung HOP stall collection forever. Context
	// deadlines on the fetch calls are honored either way.
	HTTP *http.Client
	// Registry supplies the verification key per origin HOP, and with
	// it the HOPs each feed's payloads must cover (Registry.Group).
	Registry Registry
	// Viewer optionally identifies this verifier to servers (sent as
	// the X-VPM-Viewer header); simulations use it to model
	// per-verifier misbehavior.
	Viewer string

	verifications atomic.Int64
}

// Verifications returns how many signatures the client has checked.
func (c *Client) Verifications() int64 { return c.verifications.Load() }

// Fetch retrieves all bundles at positions ≥ since from the server at
// baseURL that publishes origin's payloads, verifies each payload under
// origin's registered key, and returns the decoded bundles. Any
// verification failure aborts the fetch: unauthenticated receipts are
// never returned.
func (c *Client) Fetch(ctx context.Context, baseURL string, origin receipt.HOPID, since uint64) ([]*Bundle, error) {
	var out []*Bundle
	if _, err := c.FetchEach(ctx, baseURL, origin, since, func(b *Bundle) error {
		out = append(out, b)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchEach is the streaming form of Fetch and the HTTP twin of
// Bus.CollectSince: frames are read one at a time, each bounded
// (MaxBundleBytes, the Content-Length) before it is buffered, and fn
// gets each bundle of a payload once the payload clears authentication
// — the interval's receipts never sit in memory at once. A payload must
// hold one bundle for each HOP registered under origin's key. It
// returns the cursor: one past the server position of the last payload
// fn consumed, since if none. A response that breaks the frame format
// is a *FrameError; a payload that fails authentication, a
// *BundleError — both permanent for Retry. Either, or an fn error,
// aborts the stream; bundles already passed to fn stay consumed (ingest
// is incremental by design). A retention base above since (the server
// pruned payloads the cursor never consumed) is a GapError before
// anything is delivered: the caller decides how to handle the loss
// rather than silently skipping it.
func (c *Client) FetchEach(ctx context.Context, baseURL string, origin receipt.HOPID, since uint64, fn func(*Bundle) error) (next uint64, err error) {
	pub, ok := c.Registry[origin]
	if !ok {
		return since, fmt.Errorf("dissem: no registered key for %v", origin)
	}
	group := c.Registry.Group(origin)
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: DefaultFetchTimeout}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s?since=%d", baseURL, since), nil)
	if err != nil {
		return since, err
	}
	if c.Viewer != "" {
		req.Header.Set(ViewerHeader, c.Viewer)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return since, fmt.Errorf("dissem: fetching %v: %w", origin, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return since, fmt.Errorf("dissem: %v returned %s", origin, resp.Status)
	}
	return readFrames(resp, origin, since, func(p published) (uint64, error) {
		return receive(pub, origin, group, p, fn, &c.verifications)
	})
}

// receive is the one receive step behind both carriers: it
// authenticates the payload served at position p.seq for the HOPs of
// group (open), hands its bundles to fn in order and returns the cursor
// past it. The signature is checked once per payload, and not at all
// when the signer already verified these bytes under a key byte-equal
// to pub (Bus.CollectSinceAs), which also spares the decode the first
// time the payload is received. A failure is a permanent *BundleError
// naming origin, the position and the epoch the payload claims (0 when
// it is too short to claim one) — what both carriers can read off the
// payload alike; nothing of a refused payload reaches fn.
func receive(pub ed25519.PublicKey, origin receipt.HOPID, group []receipt.HOPID, p published, fn func(*Bundle) error, verifications *atomic.Int64) (uint64, error) {
	bundles, err := open(pub, group, p, verifications)
	if err != nil {
		return p.seq, Permanent(&BundleError{Origin: origin, Seq: p.seq, Epoch: claimedEpoch(p.sb.Payload), Err: err})
	}
	for _, b := range bundles {
		if err := fn(b); err != nil {
			return p.seq, err
		}
	}
	return p.seq + 1, nil
}

// readFrames hands each frame of a feed response to recv as the payload
// at its server position, with the epoch its first bundle claims, and
// returns the cursor recv last returned (since if none). A base above
// since is a *GapError; a missing or malformed one, not a feed. Each
// frame header is checked against MaxBundleBytes, the bundle header,
// the bytes the Content-Length still promises and the cursor — a skip
// that would wrap it is refused — before anything is read for it. A
// payload too short for a bundle header is read all the same (it is
// shorter than the header, so the read is bounded) and left to recv to
// refuse, as the bus refuses it. Every frame, header and body, is read
// into one buffer taken from frameBuffers for the response and handed
// back after it, so recv must not keep p's bytes once it returns; the
// decode copies every receipt out of them.
func readFrames(resp *http.Response, origin receipt.HOPID, since uint64, recv func(published) (uint64, error)) (uint64, error) {
	notFramed := func(why string) error {
		return Permanent(&FrameError{Origin: origin, Frame: -1, Err: fmt.Errorf("%w: %s", ErrNotFramed, why)})
	}
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		return since, notFramed(fmt.Sprintf("Content-Type %q, want %s", ct, FrameContentType))
	}
	remaining := resp.ContentLength
	if remaining < 0 {
		return since, notFramed("no Content-Length")
	}
	h := resp.Header.Get(BaseHeader)
	base, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return since, notFramed(fmt.Sprintf("%s %q", BaseHeader, h))
	}
	if base > since {
		return since, &GapError{Origin: origin, Since: since, Base: base}
	}
	bufp := getFrameBuffer()
	defer putFrameBuffer(bufp)
	var (
		i    int
		next = since // the position the next frame's skip counts from
	)
	bad := func(err error) error { return &FrameError{Origin: origin, Frame: i, Err: err} }
	for ; remaining > 0; i++ {
		if remaining < FrameHeaderSize {
			return next, Permanent(bad(fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, remaining)))
		}
		hdr, err := readFull(*bufp, resp.Body, FrameHeaderSize)
		*bufp = hdr
		if err != nil {
			return next, bad(fmt.Errorf("%w: header: %w", ErrTruncatedFrame, err))
		}
		remaining -= FrameHeaderSize
		payloadLen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		skip := uint64(binary.LittleEndian.Uint32(hdr[4:8]))
		frameLen := payloadLen + ed25519.SignatureSize
		switch {
		case payloadLen > MaxBundleBytes:
			return next, Permanent(bad(fmt.Errorf("%w: announces %d payload bytes", ErrFrameTooLarge, payloadLen)))
		case frameLen > remaining:
			return next, Permanent(bad(fmt.Errorf("%w: %d-byte frame in a response with %d bytes left", ErrBadFrame, frameLen, remaining)))
		case skip >= ^uint64(0)-next:
			return next, Permanent(bad(fmt.Errorf("%w: skipping %d positions past %d wraps the cursor", ErrBadFrame, skip, next)))
		}
		frame, err := readFull(*bufp, resp.Body, int(frameLen))
		*bufp = frame
		if err != nil {
			return next, bad(fmt.Errorf("%w: body: %w", ErrTruncatedFrame, err))
		}
		remaining -= frameLen
		n, err := recv(published{seq: next + skip, sb: SignedBundle{Payload: frame[:payloadLen], Sig: frame[payloadLen:]}})
		if err != nil {
			return next, err
		}
		next = n
	}
	return next, nil
}

// maxPooledFrameBuffer caps the frame buffers kept for reuse. It holds
// all but the rarest frames of the benchmark's fleet (99 % of a
// domain's sealed epochs are under 0.25 MB, the largest ~0.6 MB), so the
// pool pins at most half a megabyte per concurrent reader; a buffer a
// larger frame grew — up to MaxBundleBytes — is left to the garbage
// collector instead of pinning its size in the pool.
const maxPooledFrameBuffer = 512 << 10

// frameBuffers recycles readFrames' buffers across responses, so a
// verifier fetching feed after feed reads every frame into a buffer an
// earlier response already grew. It holds *[]byte; see getFrameBuffer
// and putFrameBuffer.
var frameBuffers sync.Pool

// getFrameBuffer returns an empty buffer, reusing a pooled one's
// capacity when there is one.
func getFrameBuffer() *[]byte {
	if p, ok := frameBuffers.Get().(*[]byte); ok {
		return p
	}
	return new([]byte)
}

// putFrameBuffer returns p to the pool unless it grew past
// maxPooledFrameBuffer. The caller must not use it afterwards.
func putFrameBuffer(p *[]byte) {
	if cap(*p) > maxPooledFrameBuffer {
		return
	}
	*p = (*p)[:0]
	frameBuffers.Put(p)
}

// readFull reads exactly n bytes of r into buf's storage and returns
// them — buf itself, its capacity reused, while n fits. Beyond that the
// buffer grows with the bytes that arrive, at most doubling what it
// already holds and never past n, so a length claimed but not sent buys
// no memory. On error the bytes read so far are returned with it, the
// truncated read as io.ErrUnexpectedEOF.
func readFull(buf []byte, r io.Reader, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), 4<<10)))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < n {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// Bus is an in-memory alternative to the HTTP transport for
// simulations: publish and subscribe without sockets, with the same
// sign/verify discipline.
type Bus struct {
	mu      sync.RWMutex
	servers map[receipt.HOPID]*Server

	verifications atomic.Int64
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{servers: make(map[receipt.HOPID]*Server)}
}

// Attach registers a server on the bus under every HOP it publishes
// for.
func (b *Bus) Attach(s *Server) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, h := range s.hops {
		b.servers[h] = s
	}
}

// Verifications returns how many signatures the bus's consumers have
// checked — every payload but those a server's signer verified ahead.
func (b *Bus) Verifications() int64 { return b.verifications.Load() }

// CollectSince streams the verified bundles of origin's server at
// positions ≥ since to fn and returns the next since value — the
// incremental-subscription primitive: a rolling verifier polls each
// server with the cursor from the previous call and sees every payload
// exactly once. The cursor advances only past payloads fn consumed
// successfully, so retrying with the returned cursor after an error
// re-delivers the failed payload (at-least-once). When the server
// pruned payloads the cursor never consumed (DropThrough moved its base
// past since), CollectSince returns a GapError instead of silently
// skipping the gap; resume from the error's Base to accept the loss
// explicitly.
func (b *Bus) CollectSince(reg Registry, origin receipt.HOPID, since uint64, fn func(*Bundle) error) (uint64, error) {
	return b.CollectSinceAs("", reg, origin, since, fn)
}

// CollectSinceAs is CollectSince with a viewer identity, which
// simulated per-verifier misbehavior (an Equivocator tamper) keys on.
// The server's log position is the cursor, as over HTTP (FetchEach);
// fn runs outside the bus and server locks, so it may ingest into a
// verifier (or publish elsewhere) freely. A payload that fails
// authentication is a *BundleError naming the origin and position, so
// a cursor consumer can classify it and skip past the poisoned payload.
//
// A payload must hold one bundle for each HOP the server was attached
// for, and reg must register every one of them under origin's key: on
// the bus the server's HOP set is the simulation's own wiring, which
// engine.NewBusTransport derives from the same keys, so it stands in
// for the registry scan FetchEach makes (Registry.Group) at no cost per
// fetch.
//
// The first call for an origin records reg's key on its server, whose
// signer then verifies every later payload under that key as it signs
// it, and decodes it. A payload served untampered whose signature the
// signer verified under a key byte-equal to reg's is only checked here,
// on the bundles the signer decoded — the first fetch to select it
// takes them; a later one, a retry after fn failed included, decodes
// afresh. Every other payload goes through the full check.
func (b *Bus) CollectSinceAs(viewer string, reg Registry, origin receipt.HOPID, since uint64, fn func(*Bundle) error) (uint64, error) {
	b.mu.RLock()
	s, ok := b.servers[origin]
	b.mu.RUnlock()
	if !ok {
		return since, fmt.Errorf("dissem: HOP %v not on bus", origin)
	}
	pub, ok := reg[origin]
	if !ok {
		return since, fmt.Errorf("dissem: no registered key for %v", origin)
	}
	for _, h := range s.hops {
		if !bytes.Equal(reg[h], pub) {
			return since, fmt.Errorf("dissem: %v shares %v's server but not its registered key", h, origin)
		}
	}
	if s.aheadKey.Load() == nil && len(pub) == ed25519.PublicKeySize {
		key := slices.Clone(pub)
		s.aheadKey.CompareAndSwap(nil, &key)
	}
	base, served := s.serve(viewer, since)
	if since < base {
		return since, &GapError{Origin: origin, Since: since, Base: base}
	}
	for _, p := range served {
		next, err := receive(pub, origin, s.hops, p, fn, &b.verifications)
		if err != nil {
			return since, err
		}
		since = next
	}
	return since, nil
}
