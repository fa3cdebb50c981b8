package engine

import (
	"encoding/json"
	"net/http"
	"sync"

	"vpm/internal/core"
	"vpm/internal/receipt"
)

// EpochStatus is the /debug/epochs document a verify half serves: what
// its window holds, which HOPs have yet to seal each held epoch, how
// many epochs it has verified and the last of them, and the
// dissemination findings so far. Update refreshes it from OnEpoch; the
// HTTP server reads it under the same mutex. A nil *EpochStatus records
// nothing.
type EpochStatus struct {
	mu  sync.Mutex
	doc epochsDoc
}

// epochsDoc is the JSON body of /debug/epochs.
type epochsDoc struct {
	// Held lists the window's epochs, ascending (WindowStats bounds).
	Held []heldEpoch `json:"held"`
	// LastVerified is the newest verified epoch; null before the first.
	LastVerified *core.EpochID `json:"last_verified"`
	// Verified counts the epochs verified so far (Verify.Epochs). Epochs
	// verify in ascending order, so a document whose Verified is
	// LastVerified+1 says every epoch up to it was verified, none
	// skipped.
	Verified int `json:"verified"`
	// Findings tallies Verify.Findings by evidence class.
	Findings map[string]int `json:"findings"`
}

// heldEpoch is one held epoch and the HOPs that have not sealed it —
// the stragglers an unverified epoch is waiting for.
type heldEpoch struct {
	Epoch        core.EpochID    `json:"epoch"`
	MissingSeals []receipt.HOPID `json:"missing_seals,omitempty"`
}

// Update records ver's window after epoch was verified. Call it from
// OnEpoch: it runs on the verify step's goroutine, the one that
// appends ver.Findings.
func (s *EpochStatus) Update(ver *Verify, epoch core.EpochID, ws core.WindowStats) {
	if s == nil {
		return
	}
	doc := epochsDoc{LastVerified: &epoch, Verified: ver.Epochs, Findings: make(map[string]int)}
	if ws.Segments > 0 {
		for e := ws.OldestHeld; e <= ws.NewestHeld; e++ {
			doc.Held = append(doc.Held, heldEpoch{Epoch: e, MissingSeals: ver.Window.MissingSeals(e)})
		}
	}
	for _, f := range ver.Findings {
		doc.Findings[f.Evidence.String()]++
	}
	s.mu.Lock()
	s.doc = doc
	s.mu.Unlock()
}

func (s *EpochStatus) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body, err := json.Marshal(s.doc)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
