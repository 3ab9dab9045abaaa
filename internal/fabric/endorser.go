package fabric

import (
	"sync/atomic"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/peer"
)

// Endorser is the Gateway's view of one endorsing peer: somewhere to send
// proposals, order assembled envelopes and wait for commits. Two
// implementations exist — an in-process gateway calls its *Node's peer and
// ordering service directly, and *remoteEndorser speaks to a node over the
// transport RPC layer (see remote.go). The Gateway's endorse/order/commit
// logic is identical over both, which is what keeps the in-process
// simulation and the networked deployment behaviourally equivalent.
type Endorser interface {
	// ID returns the peer's identifier.
	ID() string
	// Endorse simulates a proposal once the peer's chain has reached the
	// proposal's MinHeight, and returns the signed response. A peer that
	// does not reach it in time refuses with ErrBehind.
	Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error)
	// Order submits an assembled envelope for ordering and returns a
	// channel that yields the commit validation flag. The commit waiter is
	// registered before ordering can reject, so a fast commit is never
	// missed; a rejected submission (backpressure, stopped service)
	// surfaces as an error with no waiter left behind.
	Order(tx ledger.Transaction) (<-chan ledger.ValidationCode, error)
	// TxBlock reports the block number a committed transaction landed in.
	TxBlock(txID string) (uint64, bool)
}

// backend is the Gateway's view of a whole channel: which endorsers are
// active, which peers accept ordering submissions, and the client-side
// knobs. *Channel implements it in-process; *RemoteChannel implements it
// over the wire.
type backend interface {
	chName() string
	chPolicy() msp.QuorumPolicy
	// chMembers returns the identities whose endorsements the policy
	// counts, or nil when this side does not know them (see checkPolicy).
	chMembers() *msp.Registry
	// report records endorser misbehaviour the gateway observed.
	report(peerID, reason string)
	commitTimeout() time.Duration
	now() time.Time
	after(d time.Duration) <-chan time.Time
	// seen is the client height shared by every gateway over this
	// backend; see heightMark.
	seen() *heightMark
	// clientDelay simulates (or is, over TCP) the client<->peer hop.
	clientDelay(peerID string)
	// activeEndorsers returns the endorsers not excluded by misbehaviour.
	activeEndorsers() []Endorser
	// entryEndorsers returns the peers accepting ordering submissions.
	entryEndorsers() []Endorser
	// rrNext advances the channel's shared round-robin counter.
	rrNext() uint64
	// obsReg returns the registry client-side gateway spans record into
	// (nil when the deployment is not instrumented).
	obsReg() *obs.Registry
	// verifier checks and counts the endorsement signatures every gateway
	// over this backend admits.
	verifier() *msp.Verifier
}

// heightMark is the highest chain height (block number + 1) reached by a
// result handed to any gateway over one backend. Every proposal carries it
// as its MinHeight, so a client reads its own writes whichever peers
// endorse. It is shared by the backend's gateways so that, say, an admin
// gateway's registration is visible to a source's first store.
type heightMark struct{ h atomic.Uint64 }

func (m *heightMark) load() uint64 { return m.h.Load() }

// raise lifts the mark to h unless it is already higher.
func (m *heightMark) raise(h uint64) {
	for cur := m.h.Load(); h > cur && !m.h.CompareAndSwap(cur, h); cur = m.h.Load() {
	}
}

// Channel's backend implementation.

func (ch *Channel) chName() string                         { return ch.name }
func (ch *Channel) chPolicy() msp.QuorumPolicy             { return ch.net.cfg.Policy }
func (ch *Channel) chMembers() *msp.Registry               { return ch.net.members }
func (ch *Channel) report(peerID, reason string)           { ch.watchdog.Report(peerID, reason) }
func (ch *Channel) commitTimeout() time.Duration           { return ch.net.cfg.CommitTimeout }
func (ch *Channel) now() time.Time                         { return ch.net.cfg.Clock.Now() }
func (ch *Channel) after(d time.Duration) <-chan time.Time { return ch.net.cfg.Clock.After(d) }
func (ch *Channel) seen() *heightMark                      { return &ch.tip }
func (ch *Channel) verifier() *msp.Verifier                { return &ch.sigs }

func (ch *Channel) clientDelay(peerID string) {
	cfg := &ch.net.cfg
	if cfg.Latency == nil {
		return
	}
	if d := cfg.Latency.Delay("client", peerID); d > 0 {
		cfg.Clock.Sleep(d)
	}
}

func (ch *Channel) activeEndorsers() []Endorser {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	out := make([]Endorser, 0, len(ch.nodes))
	for _, n := range ch.nodes {
		if !ch.excluded[n.id] {
			out = append(out, n)
		}
	}
	return out
}

// entryEndorsers returns the peers a submission may enter through: every
// peer whose validator no replica has evicted. A node orders what it is
// handed through its own validator, and every honest replica drops an
// evicted validator's messages, so a transaction entered there would never
// be ordered and its client would wait out the commit timeout. An eviction
// rests on two conflicting pre-prepares signed by the evicted leader, so
// one replica's is enough.
func (ch *Channel) entryEndorsers() []Endorser {
	evicted := make(map[string]bool)
	for _, n := range ch.nodes {
		for _, id := range n.v.EvictedPeers() {
			evicted[id] = true
		}
	}
	out := make([]Endorser, 0, len(ch.nodes))
	for _, n := range ch.nodes {
		if !evicted[n.id] {
			out = append(out, n)
		}
	}
	return out
}

func (ch *Channel) rrNext() uint64 { return ch.rr.Add(1) }

func (ch *Channel) obsReg() *obs.Registry {
	return ch.net.cfg.Obs.With(obs.L("channel", ch.name))
}
