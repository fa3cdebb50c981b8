package dissem

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"

	"vpm/internal/receipt"
)

// One key, several HOPs: a server for the HOPs a key speaks for signs
// each epoch once, over their bundles end to end, and a consumer takes
// a payload only when it covers exactly those HOPs for one epoch.

// domainWorld wires a server for HOPs 4 and 5 under one key (plus HOP 9
// under a key of its own) with the registry a consumer holds.
func domainWorld(t *testing.T) (*Server, *Signer, Registry) {
	t.Helper()
	signer := NewSigner(seedOf(45))
	srv := NewDomainServer([]receipt.HOPID{5, 4}, signer)
	return srv, signer, Registry{4: signer.Public(), 5: signer.Public(), 9: NewSigner(seedOf(9)).Public()}
}

// TestDomainPayloadIsOneSignature: a payload is complete once every HOP
// of the key has published its epoch — in whichever order they seal —
// and is the HOPs' bundle encodings in ascending HOP order under one
// signature; both carriers deliver its bundles in that order, checking
// the signature once per payload.
func TestDomainPayloadIsOneSignature(t *testing.T) {
	srv, signer, reg := domainWorld(t)
	if got := reg.Group(5); !slices.Equal(got, []receipt.HOPID{4, 5}) {
		t.Fatalf("Registry.Group(5) = %v, want [4 5]", got)
	}
	bus := NewBus()
	bus.Attach(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var want []SignedBundle
	for e := uint64(0); e < 3; e++ {
		b4, b5 := sampleBundle(4, e), sampleBundle(5, e)
		b4.Epoch, b5.Epoch = e, e
		// HOP 5 seals first: nothing is served until HOP 4 has too.
		if seq := srv.Publish(5, e, b5.Samples, b5.Aggs); seq != e {
			t.Fatalf("HOP 5's epoch %d travels at position %d, want %d", e, seq, e)
		}
		if n := srv.BundleCount(); n != int(e) {
			t.Fatalf("%d payloads retained with HOP 4's epoch %d unpublished, want %d", n, e, e)
		}
		srv.Publish(4, e, b4.Samples, b4.Aggs)
		want = append(want, signer.Sign(b4, b5))
	}
	for i, sb := range srv.SignedBundles("") {
		if !bytes.Equal(sb.Payload, want[i].Payload) || !bytes.Equal(sb.Sig, want[i].Sig) {
			t.Fatalf("payload %d differs from Sign(HOP 4's bundle, HOP 5's bundle)", i)
		}
	}
	client := &Client{Registry: reg}
	for carrier, collect := range map[string]func(fn func(*Bundle) error) (uint64, error){
		"bus": func(fn func(*Bundle) error) (uint64, error) { return bus.CollectSince(reg, 5, 0, fn) },
		"http": func(fn func(*Bundle) error) (uint64, error) {
			return client.FetchEach(context.Background(), ts.URL, 5, 0, fn)
		},
	} {
		var got []receipt.HOPID
		next, err := collect(func(b *Bundle) error {
			got = append(got, b.Origin)
			return nil
		})
		if err != nil || next != 3 || !slices.Equal(got, []receipt.HOPID{4, 5, 4, 5, 4, 5}) {
			t.Fatalf("%s: delivered %v up to %d, err %v; want HOPs 4, 5 per epoch up to 3", carrier, got, next, err)
		}
	}
	if bus.Verifications() != 3 || client.Verifications() != 3 {
		t.Fatalf("bus checked %d signatures and HTTP %d, want one per payload: 3", bus.Verifications(), client.Verifications())
	}
}

// forgeOne serves epoch 1's payload rewritten by forge.
type forgeOne func(SignedBundle) SignedBundle

func (forgeOne) Name() string { return "forge-one" }
func (f forgeOne) Serve(_ string, _, epoch uint64, sb SignedBundle) (SignedBundle, bool) {
	if epoch == 1 {
		return f(sb), true
	}
	return sb, true
}

// TestDomainPayloadRules: every way an epoch-1 payload can misstate the
// key's HOPs is a permanent *BundleError at position 1, the same cause
// on both carriers, with nothing of the payload delivered.
func TestDomainPayloadRules(t *testing.T) {
	srv, signer, reg := domainWorld(t)
	for e := uint64(0); e < 3; e++ {
		for _, h := range []receipt.HOPID{4, 5} {
			b := sampleBundle(h, 0)
			srv.Publish(h, e, b.Samples, b.Aggs)
		}
	}
	// rewrite re-signs epoch 1's bundles after edit, with key.
	rewrite := func(key *Signer, edit func([]*Bundle) []*Bundle) forgeOne {
		return func(sb SignedBundle) SignedBundle {
			bundles, err := DecodePayload(sb.Payload)
			if err != nil { // runs on the HTTP handler's goroutine too
				t.Error(err)
				return sb
			}
			return key.Sign(edit(bundles)...)
		}
	}
	bus := NewBus()
	bus.Attach(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, tc := range []struct {
		name   string
		tamper forgeOne
		want   error
	}{
		{"flipped byte", func(sb SignedBundle) SignedBundle {
			bad := slices.Clone(sb.Payload)
			bad[len(bad)-1] ^= 1
			return SignedBundle{Payload: bad, Sig: sb.Sig}
		}, ErrBadSignature},
		{"another key", rewrite(NewSigner(seedOf(9)), func(bs []*Bundle) []*Bundle { return bs }), ErrBadSignature},
		{"omits a HOP", rewrite(signer, func(bs []*Bundle) []*Bundle { return bs[1:] }), ErrMissingOrigin},
		{"foreign HOP", rewrite(signer, func(bs []*Bundle) []*Bundle {
			return append(bs, &Bundle{Origin: 9, Seq: 1, Epoch: 1})
		}), ErrWrongOrigin},
		{"mixed epochs", rewrite(signer, func(bs []*Bundle) []*Bundle {
			bs[1].Epoch = 2
			return bs
		}), ErrMixedEpochs},
		{"HOP twice", rewrite(signer, func(bs []*Bundle) []*Bundle { return []*Bundle{bs[0], bs[0], bs[1]} }), ErrDuplicateOrigin},
		{"HOPs reordered", rewrite(signer, func(bs []*Bundle) []*Bundle { return []*Bundle{bs[1], bs[0]} }), ErrDuplicateOrigin},
	} {
		srv.SetTamper(tc.tamper)
		for carrier, collect := range map[string]func(fn func(*Bundle) error) (uint64, error){
			"bus": func(fn func(*Bundle) error) (uint64, error) { return bus.CollectSince(reg, 4, 1, fn) },
			"http": func(fn func(*Bundle) error) (uint64, error) {
				return (&Client{Registry: reg}).FetchEach(context.Background(), ts.URL, 4, 1, fn)
			},
		} {
			delivered := 0
			next, err := collect(func(*Bundle) error {
				delivered++
				return nil
			})
			var be *BundleError
			var perm *PermanentError
			if !errors.As(err, &be) || !errors.As(err, &perm) || !errors.Is(err, tc.want) {
				t.Fatalf("%s over %s: err %v, want a permanent BundleError wrapping %v", tc.name, carrier, err, tc.want)
			}
			if be.Seq != 1 || be.Epoch != 1 || delivered != 0 || next != 1 {
				t.Fatalf("%s over %s: %+v after %d bundles, cursor %d; want position 1, epoch 1, nothing delivered", tc.name, carrier, be, delivered, next)
			}
		}
	}
	// A consumer whose registry splits the server's HOPs across keys is
	// refused before anything is served.
	split := Registry{4: reg[4], 5: NewSigner(seedOf(9)).Public()}
	if _, err := bus.CollectSince(split, 4, 0, func(*Bundle) error { return nil }); err == nil || errors.As(err, new(*BundleError)) {
		t.Fatalf("a registry splitting the server's HOPs: err %v, want a plain error", err)
	}
}

// Verifications returns how many signatures the bus's consumers have
// checked — every payload but those a server's signer verified ahead.
func (b *Bus) Verifications() int64 { return b.verifications.Load() }
