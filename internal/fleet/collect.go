package fleet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/engine"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// Collector is one collector process's state: it drives the epoch
// pipeline for the HOPs of its domain slice and serves every sealed
// epoch of each domain as one payload signed with the domain's key. The
// HTTP surface a verifier consumes:
//
//	GET /hops                  — JSON list of the HOPs this process owns
//	GET /domain/<d>/receipts   — domain d's framed payload feed (a dissem.Server)
//	GET /status                — {"index","finished","terminal"}
//
// Payloads are retained for the whole run (no DropThrough): a verifier
// shard that crashes and restarts re-fetches everything from cursor
// zero, which is what makes verifier restart a pure replay instead of
// a recovery protocol.
type Collector struct {
	world   *World
	dep     *core.Deployment // every routed HOP's collector, built for this process
	index   int
	owned   []receipt.HOPID
	servers *engine.BusTransport   // one signing server per owned domain
	feeds   map[int]*dissem.Server // owned domain → its server
	mux     *http.ServeMux

	finished atomic.Bool
	terminal atomic.Uint64
}

// CollectorOptions tunes the simulation drive loop, not its output —
// every option combination produces the same bundles.
type CollectorOptions struct {
	// ChunkSlots is how many packet slots each simulation segment
	// materializes (bounds peak memory). 0 means a 256k default.
	ChunkSlots int64
	// Pace inserts a real-time sleep between segments, so tests can
	// kill processes mid-epoch deterministically. 0 runs full speed.
	Pace time.Duration
}

// NewCollector builds collector process index's state for the world:
// a deployment of w's plan with its own per-HOP collectors, which Run
// consumes (a Collector runs once; w stays reusable). It deploys every
// routed HOP, not only the owned ones: the simulation replays the whole
// world either way.
func NewCollector(w *World, index int) (*Collector, error) {
	if index < 0 || index >= w.Spec.Collectors {
		return nil, fmt.Errorf("fleet: collector index %d outside [0, %d)", index, w.Spec.Collectors)
	}
	dep, err := w.Plan.Deploy()
	if err != nil {
		return nil, err
	}
	c := &Collector{world: w, dep: dep, index: index, owned: w.OwnedHOPs(index)}
	signers := make(map[int]*dissem.Signer)
	c.servers = engine.NewBusTransport(c.owned, func(h receipt.HOPID) *dissem.Signer {
		d := w.Topo.HOPDomain(h)
		if signers[d] == nil {
			signers[d] = w.Spec.DomainSigner(d)
		}
		return signers[d]
	})
	c.feeds = make(map[int]*dissem.Server, len(signers))
	for _, h := range c.owned {
		c.feeds[w.Topo.HOPDomain(h)] = c.servers.Servers[h]
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/hops", c.handleHops)
	c.mux.HandleFunc("/status", c.handleStatus)
	c.mux.HandleFunc("/domain/{d}/receipts", c.handleReceipts)
	HandleProfiles(c.mux)
	return c, nil
}

// HandleProfiles registers the runtime profiles of net/http/pprof
// under /debug/pprof/ on mux: a fleet process serves them from its own
// mux, never from http.DefaultServeMux.
func HandleProfiles(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// FeedPath is the path under which a collector serves domain d's feed.
func FeedPath(d int) string { return fmt.Sprintf("/domain/%d/receipts", d) }

// Owned returns the HOPs this collector drives, ascending.
func (c *Collector) Owned() []receipt.HOPID { return c.owned }

// Handler returns the collector's HTTP surface. It is safe to serve
// while Run is still simulating: bundle feeds grow as epochs seal and
// /status flips finished when the terminal epoch is sealed. The
// runtime profiles of net/http/pprof are under /debug/pprof/.
func (c *Collector) Handler() http.Handler { return c.mux }

// HopInfo is one row of the /hops listing.
type HopInfo struct {
	HOP    receipt.HOPID `json:"hop"`
	Domain string        `json:"domain"`
	// Pub is the ed25519 public key of the HOP's domain, hex —
	// informational (the verifier derives keys from the spec; a real
	// deployment would authenticate this listing out of band).
	Pub string `json:"pub"`
	// Feed is the path of the feed carrying the HOP's bundles: its
	// domain's (FeedPath).
	Feed string `json:"feed"`
}

// CollectorStatus is the /status document.
type CollectorStatus struct {
	Index int `json:"index"`
	// Finished reports that every owned HOP has sealed and published
	// every epoch through Terminal — every payload has its seq and the
	// feeds will not grow further. Signing runs behind publication, so
	// a fetch may still wait briefly for signatures.
	Finished bool   `json:"finished"`
	Terminal uint64 `json:"terminal"`
}

func (c *Collector) handleHops(w http.ResponseWriter, r *http.Request) {
	out := make([]HopInfo, 0, len(c.owned))
	reg := c.servers.Registry
	for _, h := range c.owned {
		d := c.world.Topo.HOPDomain(h)
		out = append(out, HopInfo{
			HOP:    h,
			Domain: c.world.Topo.Domains[d].Name,
			Pub:    hex.EncodeToString(reg[h]),
			Feed:   FeedPath(d),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (c *Collector) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CollectorStatus{
		Index:    c.index,
		Finished: c.finished.Load(),
		Terminal: c.terminal.Load(),
	})
}

func (c *Collector) handleReceipts(w http.ResponseWriter, r *http.Request) {
	d, err := strconv.Atoi(r.PathValue("d"))
	srv, ok := c.feeds[d]
	if err != nil || !ok {
		http.NotFound(w, r)
		return
	}
	srv.ServeHTTP(w, r)
}

// Run is the engine's collect half over the owned HOPs: it simulates
// the whole world's traffic while observing only them, publishing each
// sealed (HOP, epoch) as one bundle of its domain's signed payload. The simulation is the full
// deterministic world — every collector process replays identical
// traffic and forwarding decisions — but observation is restricted to
// the process's HOPs, so the union of all collectors' bundles equals a
// single whole-world run's (the replayer delivers per-HOP observation
// streams independently). Returns once every owned HOP has sealed
// through the spec-derived terminal epoch, or early with ctx's error
// on cancellation.
func (c *Collector) Run(ctx context.Context, opts CollectorOptions) error {
	col, err := engine.NewCollect(c.dep, c.owned, c.world.Spec.IntervalNS, c.world.Terminal, c.servers.Sink())
	if err != nil {
		return err
	}
	sim, err := engine.NewSim(c.world.Topo, c.world.Table, nil)
	if err != nil {
		return err
	}
	if opts.Pace > 0 {
		col.AfterSegment = func(ctx context.Context) error { return engine.Sleep(ctx, opts.Pace) }
	}
	if err := col.Run(ctx, c.world.segments(opts.ChunkSlots), sim, nil); err != nil {
		return err
	}
	c.terminal.Store(uint64(col.Terminal))
	c.finished.Store(true)
	return nil
}

// defaultChunkSlots is the segment size when the caller names none.
const defaultChunkSlots = 1 << 18

// segments is the fleet's packet source: the spec's packet slots in
// chunks of chunkSlots (≤ 0: defaultChunkSlots), each chunk's horizon
// the next chunk's first send time.
func (w *World) segments(chunkSlots int64) engine.Source {
	if chunkSlots <= 0 {
		chunkSlots = defaultChunkSlots
	}
	total, lo := w.Spec.TotalSlots(), int64(0)
	return func() ([]packet.Packet, int64, bool) {
		if lo >= total {
			return nil, 0, false
		}
		hi := min(lo+chunkSlots, total)
		pkts := w.Spec.PacketsForSlots(w.Keys, lo, hi)
		lo = hi
		return pkts, w.Spec.slotTime(hi), true
	}
}
