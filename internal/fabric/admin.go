package fabric

import (
	"socialchain/internal/obs"
	"socialchain/internal/transport"
)

// TransportStatus is the wire-level slice of a /statusz report: live
// connections, per-peer send-queue depths (the backpressure picture) and
// the endpoint's cumulative traffic counters.
type TransportStatus struct {
	ConnectedPeers int            `json:"connected_peers"`
	QueueDepths    map[string]int `json:"queue_depths"`
	BytesSent      int64          `json:"bytes_sent"`
	BytesRecv      int64          `json:"bytes_recv"`
	FramesSent     int64          `json:"frames_sent"`
	FramesRecv     int64          `json:"frames_recv"`
	Reconnects     int64          `json:"reconnects"`
	Drops          int64          `json:"drops"`
}

func transportStatus(t *transport.TCP) TransportStatus {
	ctr := t.Counters()
	return TransportStatus{
		ConnectedPeers: t.ConnectedPeers(),
		QueueDepths:    t.QueueDepths(),
		BytesSent:      ctr.BytesSent.Load(),
		BytesRecv:      ctr.BytesRecv.Load(),
		FramesSent:     ctr.FramesSent.Load(),
		FramesRecv:     ctr.FramesRecv.Load(),
		Reconnects:     ctr.Reconnects.Load(),
		Drops:          ctr.Drops.Load(),
	}
}

// NodeChannelStatus is the channel's slice of a peer node's /statusz
// report.
type NodeChannelStatus struct {
	Height           uint64 `json:"height"`
	ConsensusBacklog int    `json:"consensus_backlog"`
	CommitErrors     uint64 `json:"commit_errors"`
	// The node's ordering service: transactions awaiting a cut, and the
	// batches it has proposed to its validator.
	PendingTxs      int `json:"pending_txs"`
	BatchesProposed int `json:"batches_proposed"`
	// Signature checks of the node's peer and validator: those answered
	// without running ed25519 (in-batch duplicates, byte-identical
	// pre-prepare evidence) and those that ran it.
	SignatureChecksSkipped int64   `json:"signature_checks_skipped"`
	SignatureVerifications int64   `json:"signature_verifications"`
	SignatureSkipRate      float64 `json:"signature_skip_rate"`
	// Block-file traffic of the peer's ledger: a restarted peer decodes
	// only the blocks logged above its state savepoint, so
	// OpenBlocksDecoded stays far below Height: 0 after a clean stop, the
	// blocks above the last flush after a kill.
	OpenBlocksDecoded int     `json:"ledger_open_blocks_decoded"`
	OpenSeconds       float64 `json:"peer_open_seconds"`
	BlockReads        int64   `json:"ledger_block_reads"`
	BlockCacheHits    int64   `json:"ledger_block_cache_hits"`
	BlockCacheMisses  int64   `json:"ledger_block_cache_misses"`
	// LSM state-engine internals, from the world-state store's snapshot;
	// a zero reading is omitted.
	SSTables          int   `json:"sstables,omitempty"`
	LSMLevels         int   `json:"lsm_levels,omitempty"`
	CompactionBacklog int   `json:"compaction_backlog,omitempty"`
	Compactions       int64 `json:"compactions,omitempty"`
	CompactedBytes    int64 `json:"compacted_bytes,omitempty"`
	MemtableBytes     int64 `json:"memtable_bytes,omitempty"`
	StallWaits        int64 `json:"stall_waits,omitempty"`
	// IndexBytes is what the live tables hold in memory to find a key
	// (index blocks, fences and bloom filters): an idle engine's heap
	// per table byte on disk.
	IndexBytes int64 `json:"index_bytes,omitempty"`
}

// NodeStatus is a peer node's full /statusz report; Channels holds one
// entry, keyed by the channel name.
type NodeStatus struct {
	ID         string                       `json:"id"`
	HeapAlloc  uint64                       `json:"go_heap_alloc_bytes"`
	Channels   map[string]NodeChannelStatus `json:"channels"`
	Transport  TransportStatus              `json:"transport"`
	SlowTraces []obs.TraceRecord            `json:"slow_traces,omitempty"`
}

// ServeAdmin binds the node's admin/debug HTTP surface (metrics, health,
// statusz, pprof) on addr. Off unless called; Close tears it down. It
// serves a node built by NewNode, whose endpoint is TCP.
func (n *Node) ServeAdmin(addr string) error {
	health := obs.NewHealth(0, nil)
	health.Register(n.net.ChannelID, obs.Probe{
		Height:   n.p.Height,
		Backlog:  n.v.Backlog,
		Peers:    n.Transport().ConnectedPeers,
		MinPeers: 1,
	})
	srv, err := obs.ServeAdmin(addr, n.net.Obs, health, n.statusz)
	if err != nil {
		return err
	}
	n.admin = srv
	return nil
}

// AdminAddr returns the bound admin address ("" when not serving).
func (n *Node) AdminAddr() string {
	if n.admin == nil {
		return ""
	}
	return n.admin.Addr()
}

// statusz assembles the node's /statusz report.
func (n *Node) statusz() any {
	ps, pv := n.p.VerifyCacheStats()
	vs, vv := n.v.VerifyCacheStats()
	cs := NodeChannelStatus{
		Height:                 n.p.Height(),
		ConsensusBacklog:       n.v.Backlog(),
		CommitErrors:           n.commitErr.Load(),
		PendingTxs:             n.o.PendingTxs(),
		BatchesProposed:        n.o.Proposed(),
		SignatureChecksSkipped: ps + vs,
		SignatureVerifications: pv + vv,
		OpenSeconds:            n.p.OpenTook().Seconds(),
	}
	io := n.p.Ledger().IOStats()
	cs.OpenBlocksDecoded, cs.BlockReads = io.OpenDecoded, io.BlockReads
	cs.BlockCacheHits, cs.BlockCacheMisses = io.CacheHits, io.CacheMisses
	ss, _ := n.p.State().StorageStats()
	cs.SSTables = ss.SSTables
	cs.LSMLevels = ss.Levels
	cs.CompactionBacklog = ss.CompactionBacklog
	cs.Compactions = ss.Compactions
	cs.CompactedBytes = ss.CompactedBytes
	cs.MemtableBytes = ss.MemtableBytes
	cs.StallWaits = ss.StallWaits
	cs.IndexBytes = ss.IndexBytes
	if total := cs.SignatureChecksSkipped + cs.SignatureVerifications; total > 0 {
		cs.SignatureSkipRate = float64(cs.SignatureChecksSkipped) / float64(total)
	}
	return NodeStatus{
		ID:         n.id,
		HeapAlloc:  obs.HeapAlloc(),
		Channels:   map[string]NodeChannelStatus{n.net.ChannelID: cs},
		Transport:  transportStatus(n.Transport()),
		SlowTraces: n.net.SlowTraces.Snapshot(),
	}
}
