package engine

import (
	"context"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/receipt"
)

// BusTransport is the in-process transport: one signing bundle server
// per HOP on an in-memory bus, every public key registered. Servers is
// exported so dissemination-layer adversaries can be installed
// (Server.SetTamper).
type BusTransport struct {
	Bus      *dissem.Bus
	Registry dissem.Registry
	Servers  map[receipt.HOPID]*dissem.Server
	// Samples and Aggs count the receipts Sink published.
	Samples, Aggs atomic.Int64

	hops []receipt.HOPID
}

// NewBusTransport builds the transport for hops with keys from signer.
func NewBusTransport(hops []receipt.HOPID, signer func(receipt.HOPID) *dissem.Signer) *BusTransport {
	t := &BusTransport{
		Bus:      dissem.NewBus(),
		Registry: make(dissem.Registry, len(hops)),
		Servers:  make(map[receipt.HOPID]*dissem.Server, len(hops)),
		hops:     hops,
	}
	for _, id := range hops {
		s := signer(id)
		srv := dissem.NewServer(id, s)
		t.Bus.Attach(srv)
		t.Servers[id] = srv
		t.Registry[id] = s.Public()
	}
	return t
}

// Sink publishes each sealed (HOP, epoch) as one signed epoch-tagged
// bundle. It runs on the replay goroutines, one per HOP.
func (t *BusTransport) Sink() core.EpochSink {
	return func(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		t.Samples.Add(int64(len(samples)))
		t.Aggs.Add(int64(len(aggs)))
		t.Servers[hop].PublishEpoch(uint64(epoch), samples, aggs)
	}
}

// Feeds returns one feed per HOP. Consumed bundles live on in the
// verify half's window, so each fetch frees the publisher's copies
// behind the cursor: server memory stays bounded over an endless
// stream, like the window's.
func (t *BusTransport) Feeds() []Feed {
	feeds := make([]Feed, len(t.hops))
	for i, id := range t.hops {
		srv := t.Servers[id]
		feeds[i] = Feed{HOP: id, Fetch: func(_ context.Context, since uint64, fn func(*dissem.Bundle) error) (uint64, error) {
			next, err := t.Bus.CollectSince(t.Registry, id, since, fn)
			if next > 0 {
				srv.DropThrough(next - 1)
			}
			return next, err
		}}
	}
	return feeds
}

// HTTPFeed is hop's feed at url, fetched by c under the retry policy: a
// retry resumes from the cursor the failed attempt reached, and a
// bundle refused at ingest is permanent — no retry fixes that.
func HTTPFeed(c *dissem.Client, retry dissem.RetryPolicy, url string, hop receipt.HOPID) Feed {
	return Feed{HOP: hop, Fetch: func(ctx context.Context, since uint64, fn func(*dissem.Bundle) error) (next uint64, err error) {
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
