package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/ordering"
)

// TestTracePropagationOverWire follows one trace ID across a real TCP RPC
// hop: minted in the client process at proposal time, carried through the
// ordering service and consensus inside the transaction envelope, and returned both
// in the commit result and in the block fetched back from a peer process.
func TestTracePropagationOverWire(t *testing.T) {
	net := Config{
		NumPeers:     4,
		IdentitySeed: "trace-wire",
		Cutter:       ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
	}
	d := startDeployment(t, net)
	gw := d.remote.ChannelAt(0).Gateway(newClient(t))

	res, err := gw.Submit("kv", "put", []byte("traced"), []byte("v"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("flag %s", res.Flag)
	}
	if len(res.Trace) != 16 {
		t.Fatalf("result trace %q, want 16 hex chars", res.Trace)
	}

	// The committed transaction on a peer process must carry the same ID.
	// Genesis is height 1 on every peer from boot; the transaction's block
	// is height 2, and only the submitting peer is known to have it yet.
	for _, n := range d.nodes {
		if !d.waitNodeHeight(n, 2, 10*time.Second) {
			t.Fatalf("node %s never committed", n.ID())
		}
		blocks, err := d.remote.Blocks(n.ID(), 0)
		if err != nil {
			t.Fatalf("blocks from %s: %v", n.ID(), err)
		}
		found := false
		for _, b := range blocks {
			for i := range b.Txs {
				if b.Txs[i].ID == res.TxID {
					found = true
					if b.Txs[i].Trace != res.Trace {
						t.Fatalf("trace on %s = %q, want %q", n.ID(), b.Txs[i].Trace, res.Trace)
					}
				}
			}
		}
		if !found {
			t.Fatalf("tx %s not found on %s", res.TxID, n.ID())
		}
	}
}

// TestNodeAdminSurfaceLive boots a real deployment, serves one node's
// admin surface, pushes traffic and asserts the operational contract CI
// relies on: /metrics exposes the core series, the node's ordering series
// among them, /healthz answers 200 on a live chain, and /statusz reports
// heights, the batches the node proposed, transport traffic and the trace
// ring.
func TestNodeAdminSurfaceLive(t *testing.T) {
	net := Config{
		NumPeers:     4,
		IdentitySeed: "admin-wire",
		Cutter:       ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
	}
	d := startDeployment(t, net)
	node := d.nodes[0]
	if err := node.ServeAdmin("127.0.0.1:0"); err != nil {
		t.Fatalf("serve admin: %v", err)
	}
	channel := d.remote.ChannelAt(0).Name()
	gw := d.remote.ChannelAt(0).Gateway(newClient(t))
	const numTx = 4
	for i := 0; i < numTx; i++ {
		res, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil || res.Flag != ledger.Valid {
			t.Fatalf("submit %d: %v %v", i, err, res)
		}
	}
	if !d.waitNodeHeight(node, numTx+1, 10*time.Second) { // genesis + one block per submit
		t.Fatal("node did not commit the traffic")
	}

	fetch := func(base, path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, metricsBody := fetch(node.AdminAddr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"transport_bytes_sent_total", "transport_frames_recv_total",
		"signature_verifications_total", "signature_checks_skipped_total", "signatures_made_total",
		`component="peer"`, `component="consensus"`, "chain_height",
		"peer_txs_committed_total", "peer_blocks_committed_total",
		"tx_stage_seconds_bucket", "tx_commit_e2e_seconds_count",
		"consensus_delivered_total", "consensus_backlog",
		"consensus_inbox_messages", "transport_send_queue_frames",
		"ordering_batches_proposed_total",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The ISSUE's bar: at least 12 distinct series names on a live peer.
	names := make(map[string]bool)
	for _, line := range strings.Split(metricsBody, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i > 0 {
			name = line[:i]
		}
		names[name] = true
	}
	if len(names) < 12 {
		t.Fatalf("/metrics has %d distinct series names, want >= 12:\n%s", len(names), metricsBody)
	}

	code, healthBody := fetch(node.AdminAddr(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, healthBody)
	}

	code, statusBody := fetch(node.AdminAddr(), "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var status NodeStatus
	if err := json.Unmarshal([]byte(statusBody), &status); err != nil {
		t.Fatalf("/statusz not NodeStatus JSON: %v\n%s", err, statusBody)
	}
	if status.ID != node.ID() {
		t.Fatalf("/statusz id %q, want %q", status.ID, node.ID())
	}
	if got := status.Channels[channel].Height; got < numTx {
		t.Fatalf("/statusz height %d, want >= %d", got, numTx)
	}
	if got := status.Channels[channel].SignatureVerifications; got == 0 {
		t.Fatal("/statusz counts no signature verifications after committing traffic")
	}
	if status.Transport.BytesSent == 0 || status.Transport.ConnectedPeers == 0 {
		t.Fatalf("/statusz transport idle: %+v", status.Transport)
	}
	if len(status.SlowTraces) == 0 {
		t.Fatal("/statusz has no slow traces after committing traffic")
	}
	if tr := status.SlowTraces[len(status.SlowTraces)-1]; len(tr.Trace) != 16 || tr.Channel != channel {
		t.Fatalf("bad trace record %+v", tr)
	}
	// The remote gateway enters round robin, so every node ordered some of
	// the traffic through its own cutter.
	if got := status.Channels[channel].BatchesProposed; got < 1 {
		t.Fatalf("node proposed %d batches, want >= 1", got)
	}
	proposed := 0
	for _, n := range d.nodes {
		proposed += n.o.Proposed()
	}
	if proposed < numTx {
		t.Fatalf("the nodes proposed %d batches, want >= %d", proposed, numTx)
	}
}
