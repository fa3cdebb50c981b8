package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// layer. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Epoch  int32  `json:"epoch"`  // harness iteration, -1 when not per-epoch
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing and reads no clock, which is the untraced run.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent, epoch int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Epoch: epoch})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other (concurrent shards), so the cover is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		cover, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				cover += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - cover
	}
	return self
}

// layerTotal is one span name's summed self time and span count.
type layerTotal struct {
	selfNS int64
	n      int
}

func layerTotals(spans []span, self []int64) map[string]layerTotal {
	out := make(map[string]layerTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.selfNS += self[i]
		t.n++
		out[s.Name] = t
	}
	return out
}

// writeSpans dumps the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile picks the highest of p99.9, p99, p95, p90 that still
// has at least ten samples beyond it, so the reported tail is never
// the noise of a handful of values. With fewer than 100 samples there
// is none, and it returns ok=false.
func tailPercentile(sorted []float64) (p, value float64, ok bool) {
	for _, perMille := range []int{999, 990, 950, 900} {
		if len(sorted)*(1000-perMille)/1000 >= 10 {
			p := float64(perMille) / 1000
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// sortedCopy returns values ascending.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 {
	s := sortedCopy(values)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
