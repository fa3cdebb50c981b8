package segstore

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"vpm/internal/core"
	"vpm/internal/packet"
)

// The historical-verdict query API: read-only HTTP over the store's
// persisted per-epoch reports, so disputes can be investigated long
// after the epochs left the RAM window — the paper's post-hoc use
// case. Three endpoints:
//
//	GET /api/v1/epochs    — the durable world: sealed epochs, report
//	                        availability, occupancy stats.
//	GET /api/v1/verdicts  — per-epoch verdict reports. Filters:
//	                        from/to (epoch range, inclusive),
//	                        from_ns/to_ns (time range; needs the
//	                        epoch interval), key (traffic key,
//	                        "src->dst" CIDR pair), domain (domain
//	                        name). Each report is rendered from the
//	                        record verification filed, held to its
//	                        checksum first — byte-identical to the
//	                        canonical JSON of the verifier's report.
//	GET /metrics          — Prometheus text exposition: occupancy
//	                        gauges plus violation/matched-sample
//	                        counters over the stored verdicts.
//
// The handler is safe for concurrent use alongside a writing Store.

// APIConfig parameterizes the query handler.
type APIConfig struct {
	// IntervalNS is the epoch interval, enabling the from_ns/to_ns
	// time-range parameters (epoch = time ÷ interval). 0 disables
	// time-range queries (400 on use).
	IntervalNS int64
}

// apiHandler serves the query API over one store.
type apiHandler struct {
	store *Store
	cfg   APIConfig

	// tallies memoizes per-epoch violation/matched counts for the
	// metrics endpoint, so scrapes do not re-decode unchanged reports.
	mu      sync.Mutex
	tallies map[uint64]reportTally

	// bufs holds the *[]byte read buffers verdict queries stream report
	// files through, so a query allocates nothing per report byte.
	bufs sync.Pool
}

type reportTally struct {
	violations int
	matched    int64
}

// NewHandler returns the query API over s.
func NewHandler(s *Store, cfg APIConfig) http.Handler {
	h := &apiHandler{store: s, cfg: cfg, tallies: make(map[uint64]reportTally)}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/epochs", h.epochs)
	mux.HandleFunc("/api/v1/verdicts", h.verdicts)
	mux.HandleFunc("/metrics", h.metrics)
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func wantGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

// epochsResponse is GET /api/v1/epochs.
type epochsResponse struct {
	Sealed     []uint64 `json:"sealed"`
	LastSealed *uint64  `json:"last_sealed,omitempty"`
	Reports    []uint64 `json:"reports"`
	Stats      Stats    `json:"stats"`
}

func (h *apiHandler) epochs(w http.ResponseWriter, r *http.Request) {
	if !wantGET(w, r) {
		return
	}
	resp := epochsResponse{
		Sealed:  h.store.SealedEpochs(),
		Reports: h.store.ReportEpochs(),
		Stats:   h.store.StoreStats(),
	}
	if last, ok := h.store.LastSealed(); ok {
		resp.LastSealed = &last
	}
	if resp.Sealed == nil {
		resp.Sealed = []uint64{}
	}
	if resp.Reports == nil {
		resp.Reports = []uint64{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// epochRange resolves the from/to (epoch) and from_ns/to_ns (time)
// query parameters to an inclusive epoch range over the epochs that
// have reports.
func (h *apiHandler) epochRange(r *http.Request) (from, to uint64, err error) {
	q := r.URL.Query()
	from, to = 0, ^uint64(0)
	parse := func(name string) (uint64, bool, error) {
		s := q.Get(name)
		if s == "" {
			return 0, false, nil
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("bad %s %q: %v", name, s, err)
		}
		return v, true, nil
	}
	if v, ok, perr := parse("from"); perr != nil {
		return 0, 0, perr
	} else if ok {
		from = v
	}
	if v, ok, perr := parse("to"); perr != nil {
		return 0, 0, perr
	} else if ok {
		to = v
	}
	for _, tp := range []struct {
		name  string
		apply func(epoch uint64)
	}{
		{"from_ns", func(e uint64) { from = e }},
		{"to_ns", func(e uint64) { to = e }},
	} {
		v, ok, perr := parse(tp.name)
		if perr != nil {
			return 0, 0, perr
		}
		if !ok {
			continue
		}
		if h.cfg.IntervalNS <= 0 {
			return 0, 0, fmt.Errorf("%s requires the server to know the epoch interval", tp.name)
		}
		tp.apply(v / uint64(h.cfg.IntervalNS))
	}
	if from > to {
		return 0, 0, fmt.Errorf("empty range: from %d > to %d", from, to)
	}
	return from, to, nil
}

// The body of GET /api/v1/verdicts is
//
//	{"epochs":[e0,e1,…],"reports":[r0,r1,…]}\n
//
// where each rᵢ is one canonical report. The frame is written by hand
// around the report bytes: they are compact, HTML-escaped JSON as they
// stand (core.AppendEpochReport's output, rendered by Store.ReportInto),
// so a json.Encoder over RawMessages would re-validate and re-compact
// megabytes into the very same bytes (TestVerdictsResponseByteIdentical).

// writeVerdictsHead starts the response: the header, and the frame up
// to the first report.
func writeVerdictsHead(w http.ResponseWriter, epochs []uint64) {
	head := []byte(`{"epochs":[`)
	for i, e := range epochs {
		if i > 0 {
			head = append(head, ',')
		}
		head = strconv.AppendUint(head, e, 10)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(head, `],"reports":[`...))
}

const verdictsTail = "]}\n"

func (h *apiHandler) verdicts(w http.ResponseWriter, r *http.Request) {
	if !wantGET(w, r) {
		return
	}
	from, to, err := h.epochRange(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	keyFilter := q.Get("key")
	var wantKey packet.PathKey
	if keyFilter != "" {
		k, err := packet.ParsePathKey(keyFilter)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad key %q: %v", keyFilter, err)
			return
		}
		wantKey = k
	}
	domainFilter := q.Get("domain")

	epochs := h.store.ReportEpochs()
	lo := sort.Search(len(epochs), func(i int) bool { return epochs[i] >= from })
	hi := sort.Search(len(epochs), func(i int) bool { return epochs[i] > to })
	epochs = epochs[lo:hi]

	bufp, _ := h.bufs.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
	}
	defer h.bufs.Put(bufp)

	if keyFilter == "" && domainFilter == "" {
		h.serveReports(w, epochs, bufp)
		return
	}
	// Filtered: each report is decoded from its record and narrowed,
	// and only what survives is rendered. Which epochs survive is known
	// only after every report has been narrowed, so the narrowed
	// encodings are gathered first.
	d := h.store.decoders.Get().(*core.ReportDecoder)
	defer h.store.decoders.Put(d)
	var kept []uint64
	var body []byte
	for _, epoch := range epochs {
		payload, err := h.store.payloadInto(epoch, *bufp)
		*bufp = payload[:0]
		var rep *core.EpochReport
		if err == nil {
			rep, err = decodeReport(epoch, payload, d)
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "reading epoch %d report: %v", epoch, err)
			return
		}
		filtered := filterReport(rep, keyFilter != "", wantKey, domainFilter)
		if len(filtered.Keys) == 0 {
			continue
		}
		if len(kept) > 0 {
			body = append(body, ',')
		}
		if body, err = core.AppendEpochReport(body, &filtered); err != nil {
			httpError(w, http.StatusInternalServerError, "encoding epoch %d report: %v", epoch, err)
			return
		}
		kept = append(kept, epoch)
	}
	writeVerdictsHead(w, kept)
	w.Write(body)
	io.WriteString(w, verdictsTail)
}

// serveReports writes the frame around epochs' reports, each rendered
// through *bufp (Store.ReportInto) one at a time and verified against
// its checksum before any of it is written. A report that fails before
// the first byte has gone out is a 500; one that fails later aborts
// the connection — the client must see a broken response, never a
// well-formed body that is short a verdict.
func (h *apiHandler) serveReports(w http.ResponseWriter, epochs []uint64, bufp *[]byte) {
	for i, epoch := range epochs {
		blob, err := h.store.ReportInto(epoch, *bufp)
		*bufp = blob[:0]
		switch {
		case err != nil && i == 0:
			httpError(w, http.StatusInternalServerError, "reading epoch %d report: %v", epoch, err)
			return
		case err != nil:
			panic(http.ErrAbortHandler)
		case i == 0:
			writeVerdictsHead(w, epochs)
		default:
			io.WriteString(w, ",")
		}
		w.Write(blob)
	}
	if len(epochs) == 0 {
		writeVerdictsHead(w, nil)
	}
	io.WriteString(w, verdictsTail)
}

// filterReport narrows a report to the requested key and/or domain:
// keys not matching the key filter are dropped; with a domain filter,
// each surviving key keeps only the matching domain reports (and the
// blames naming that domain), and keys left with no matching domain
// are dropped.
func filterReport(rep *core.EpochReport, byKey bool, key packet.PathKey, domain string) core.EpochReport {
	out := core.EpochReport{Epoch: rep.Epoch}
	for _, kr := range rep.Keys {
		if byKey && kr.Key != key {
			continue
		}
		if domain == "" {
			out.Keys = append(out.Keys, kr)
			continue
		}
		nk := kr
		nk.Domains = nil
		for _, dr := range kr.Domains {
			if dr.Name == domain {
				nk.Domains = append(nk.Domains, dr)
			}
		}
		if len(nk.Domains) == 0 {
			continue
		}
		nk.Blames = nil
		for _, bl := range kr.Blames {
			for _, d := range bl.Domains {
				if d == domain {
					nk.Blames = append(nk.Blames, bl)
					break
				}
			}
		}
		nk.Bias = nil
		for _, bv := range kr.Bias {
			if bv.Domain == domain {
				nk.Bias = append(nk.Bias, bv)
			}
		}
		out.Keys = append(out.Keys, nk)
	}
	return out
}

// tallyFor returns (memoized) the violation/matched counts of one
// stored report.
func (h *apiHandler) tallyFor(epoch uint64) (reportTally, error) {
	h.mu.Lock()
	t, ok := h.tallies[epoch]
	h.mu.Unlock()
	if ok {
		return t, nil
	}
	payload, err := h.store.payloadInto(epoch, nil)
	if err != nil {
		return reportTally{}, err
	}
	d := h.store.decoders.Get().(*core.ReportDecoder)
	defer h.store.decoders.Put(d)
	rep, err := decodeReport(epoch, payload, d)
	if err != nil {
		return reportTally{}, err
	}
	t = reportTally{violations: rep.Violations(), matched: rep.MatchedSamples()}
	h.mu.Lock()
	h.tallies[epoch] = t
	h.mu.Unlock()
	return t, nil
}

func (h *apiHandler) metrics(w http.ResponseWriter, r *http.Request) {
	if !wantGET(w, r) {
		return
	}
	st := h.store.StoreStats()
	var violations int
	var matched int64
	for _, epoch := range h.store.ReportEpochs() {
		t, err := h.tallyFor(epoch)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "tallying epoch %d: %v", epoch, err)
			return
		}
		violations += t.violations
		matched += t.matched
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP vpm_store_sealed_epochs Durably sealed epochs on disk.\n")
	fmt.Fprintf(w, "# TYPE vpm_store_sealed_epochs gauge\nvpm_store_sealed_epochs %d\n", st.SealedEpochs)
	fmt.Fprintf(w, "# TYPE vpm_store_segments gauge\nvpm_store_segments %d\n", st.Segments)
	fmt.Fprintf(w, "# TYPE vpm_store_bytes gauge\nvpm_store_bytes %d\n", st.Bytes)
	fmt.Fprintf(w, "# TYPE vpm_store_report_bytes gauge\nvpm_store_report_bytes %d\n", st.ReportBytes)
	fmt.Fprintf(w, "# TYPE vpm_store_sample_receipts gauge\nvpm_store_sample_receipts %d\n", st.Samples)
	fmt.Fprintf(w, "# TYPE vpm_store_agg_receipts gauge\nvpm_store_agg_receipts %d\n", st.Aggs)
	fmt.Fprintf(w, "# TYPE vpm_store_reports gauge\nvpm_store_reports %d\n", st.Reports)
	fmt.Fprintf(w, "# HELP vpm_violations_total Consistency violations across stored verdict reports.\n")
	fmt.Fprintf(w, "# TYPE vpm_violations_total counter\nvpm_violations_total %d\n", violations)
	fmt.Fprintf(w, "# TYPE vpm_matched_samples_total counter\nvpm_matched_samples_total %d\n", matched)
}
