package fabric

import (
	"sort"
	"sync"
)

// Watchdog tracks endorsement misbehaviour. The paper requires that
// "validators that repeatedly act against the consensus rules (e.g., by
// endorsing invalid transactions) are flagged and removed from the
// validator pool"; committers report endorsers whose signed digests do not
// match the agreed simulation outcome, and once a peer accumulates
// Threshold reports it is flagged. The network assembly removes flagged
// peers from the endorser set.
type Watchdog struct {
	mu        sync.Mutex
	threshold int
	reports   map[string][]string // peer id -> reasons
	flagged   map[string]bool
	onFlag    []func(id string)
}

// NewWatchdog creates a watchdog flagging peers after threshold reports.
func NewWatchdog(threshold int) *Watchdog {
	if threshold <= 0 {
		threshold = 3
	}
	return &Watchdog{
		threshold: threshold,
		reports:   make(map[string][]string),
		flagged:   make(map[string]bool),
	}
}

// OnFlag registers a callback invoked (once per peer) when a peer crosses
// the misbehaviour threshold.
func (w *Watchdog) OnFlag(fn func(id string)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onFlag = append(w.onFlag, fn)
}

// Report records one misbehaviour observation against a peer.
func (w *Watchdog) Report(id, reason string) {
	w.mu.Lock()
	w.reports[id] = append(w.reports[id], reason)
	shouldFlag := !w.flagged[id] && len(w.reports[id]) >= w.threshold
	if shouldFlag {
		w.flagged[id] = true
	}
	callbacks := append([]func(string){}, w.onFlag...)
	w.mu.Unlock()
	if shouldFlag {
		for _, fn := range callbacks {
			fn(id)
		}
	}
}

// Reports returns the misbehaviour count for a peer.
func (w *Watchdog) Reports(id string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.reports[id])
}

// IsFlagged reports whether a peer has crossed the threshold.
func (w *Watchdog) IsFlagged(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flagged[id]
}

// Flagged returns all flagged peer ids, sorted.
func (w *Watchdog) Flagged() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.flagged))
	for id := range w.flagged {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
