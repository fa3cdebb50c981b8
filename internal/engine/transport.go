package engine

import (
	"context"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/receipt"
)

// BusTransport is the in-process transport: one signing server per key
// on an in-memory bus, every public key registered. HOPs whose signers
// share a key — a domain's HOPs under one key pair — share a server, so
// each sealed epoch of theirs is one signed payload; a HOP with a key of
// its own gets a one-HOP server. Servers is exported so
// dissemination-layer adversaries can be installed (Server.SetTamper).
type BusTransport struct {
	Bus      *dissem.Bus
	Registry dissem.Registry
	// Servers maps every HOP to the server of its key.
	Servers map[receipt.HOPID]*dissem.Server
	// Samples and Aggs count the receipts Sink published.
	Samples, Aggs atomic.Int64

	servers []*dissem.Server // one per key, in order of each key's first HOP
}

// NewBusTransport builds the transport for hops with keys from signer,
// grouping the HOPs whose keys are byte-equal onto one server.
func NewBusTransport(hops []receipt.HOPID, signer func(receipt.HOPID) *dissem.Signer) *BusTransport {
	t := &BusTransport{
		Bus:      dissem.NewBus(),
		Registry: make(dissem.Registry, len(hops)),
		Servers:  make(map[receipt.HOPID]*dissem.Server, len(hops)),
	}
	var signers []*dissem.Signer
	var groups [][]receipt.HOPID
	byKey := make(map[string]int)
	for _, id := range hops {
		s := signer(id)
		t.Registry[id] = s.Public()
		i, ok := byKey[string(s.Public())]
		if !ok {
			i = len(signers)
			byKey[string(s.Public())] = i
			signers, groups = append(signers, s), append(groups, nil)
		}
		groups[i] = append(groups[i], id)
	}
	for i, group := range groups {
		srv := dissem.NewDomainServer(group, signers[i])
		t.Bus.Attach(srv)
		t.servers = append(t.servers, srv)
		for _, id := range group {
			t.Servers[id] = srv
		}
	}
	return t
}

// Sink publishes each sealed (HOP, epoch) to its key's server, which
// signs the epoch once every HOP of the key has sealed it. It runs on
// the replay goroutines, one per HOP.
func (t *BusTransport) Sink() core.EpochSink {
	return func(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		t.Samples.Add(int64(len(samples)))
		t.Aggs.Add(int64(len(aggs)))
		t.Servers[hop].Publish(hop, uint64(epoch), samples, aggs)
	}
}

// Feeds returns one feed per server. Consumed bundles live on in the
// verify half's window, so each fetch frees the publisher's copies
// behind the cursor: server memory stays bounded over an endless
// stream, like the window's.
func (t *BusTransport) Feeds() []Feed {
	feeds := make([]Feed, len(t.servers))
	for i, srv := range t.servers {
		hops := srv.HOPs()
		feeds[i] = Feed{HOPs: hops, Fetch: func(_ context.Context, since uint64, fn func(*dissem.Bundle) error) (uint64, error) {
			next, err := t.Bus.CollectSince(t.Registry, hops[0], since, fn)
			if next > 0 {
				srv.DropThrough(next - 1)
			}
			return next, err
		}}
	}
	return feeds
}

// HTTPFeed is the feed at url of the server publishing hop's payloads,
// fetched by c under the retry policy: a retry resumes from the cursor
// the failed attempt reached, and a bundle refused at ingest is
// permanent — no retry fixes that. The feed speaks for every HOP c's
// registry holds under hop's key.
func HTTPFeed(c *dissem.Client, retry dissem.RetryPolicy, url string, hop receipt.HOPID) Feed {
	return Feed{HOPs: c.Registry.Group(hop), Fetch: func(ctx context.Context, since uint64, fn func(*dissem.Bundle) error) (next uint64, err error) {
		next = since
		err = dissem.Retry(ctx, retry, func() (err error) {
			next, err = c.FetchEach(ctx, url, hop, next, func(b *dissem.Bundle) error { return dissem.Permanent(fn(b)) })
			return err
		})
		return next, err
	}}
}

// Sleep waits d, or less if ctx ends first, in which case it returns
// ctx's error.
func Sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
