package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/codec"
	"socialchain/internal/ledger"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/transport"
)

// TestNetworkOverTCPTransport runs a regular in-process network whose
// consensus traffic crosses real framed localhost sockets instead of
// pointer passing.
func TestNetworkOverTCPTransport(t *testing.T) {
	net := newTestNetwork(t, Config{
		NumPeers:  4,
		Transport: "tcp",
		Cutter:    ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
	})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		res, err := gw.Submit("kv", "put", []byte(key), []byte("v"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("submit %d flag %s", i, res.Flag)
		}
	}
	if !net.ChannelAt(0).WaitHeight(5, 10*time.Second) {
		t.Fatal("peers did not all reach height 5")
	}
	trs := net.Transports()
	if len(trs) != 4 {
		t.Fatalf("expected 4 transports, got %d", len(trs))
	}
	var bytesSent int64
	for _, tr := range trs {
		bytesSent += tr.Counters().BytesSent.Load()
	}
	if bytesSent == 0 {
		t.Fatal("consensus committed but no bytes crossed the TCP transports")
	}
}

// TestRemoteDrivesInProcessNetwork: an in-process network is N nodes, each
// serving the RPC surface a socialchaind peer process serves, so a remote
// gateway dialed at the network's TCP endpoints drives it the way it
// drives a multi-process deployment: it submits to the node it waits on.
func TestRemoteDrivesInProcessNetwork(t *testing.T) {
	cfg := Config{
		NumPeers:  4,
		Transport: "tcp",
		Cutter:    ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
	}
	net := newTestNetwork(t, cfg)
	ch := net.ChannelAt(0)
	book := make(map[string]string)
	for i, tr := range net.Transports() {
		book[ch.Peer(i).ID()] = tr.Addr()
	}
	remote, err := Dial(RemoteConfig{Net: cfg, Peers: book, RPCTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	gw := remote.ChannelAt(0).Gateway(newClient(t))

	res, err := gw.Submit("kv", "put", []byte("one"), []byte("1"))
	if err != nil || res.Flag != ledger.Valid {
		t.Fatalf("remote submit: %v %+v", err, res)
	}
	batch := []chaincode.BatchCall{
		{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("two"), []byte("2")}},
		{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("three"), []byte("3")}},
	}
	res, err = gw.SubmitBatch(batch)
	if err != nil || res.Flag != ledger.Valid {
		t.Fatalf("remote batch submit: %v %+v", err, res)
	}
	if !ch.WaitHeight(res.BlockNum+1, 10*time.Second) {
		t.Fatal("peers did not all commit the remote batch")
	}
	// A node that does not reach a proposal's MinHeight says so over the
	// wire as ErrBehind, which a remote read moves past.
	prop, err := peer.NewProposal(newClient(t), ch.Name(), "kv", "get", [][]byte{[]byte("one")}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	prop.MinHeight = res.BlockNum + 100
	if _, err := remote.ChannelAt(0).endorsers[0].Endorse(prop); !errors.Is(err, ErrBehind) {
		t.Fatalf("remote endorse below MinHeight: %v, want ErrBehind", err)
	}
	tip := ch.Peer(0).Ledger().TipHash()
	for i, p := range ch.Peers() {
		if p.Ledger().TipHash() != tip {
			t.Fatalf("peer %d tip differs from peer 0's", i)
		}
		for key, want := range map[string]string{"one": "1", "two": "2", "three": "3"} {
			if vv, ok := p.State().GetState("kv", key); !ok || string(vv.Value) != want {
				t.Fatalf("peer %d holds %s = %q, want %q", i, key, vv.Value, want)
			}
		}
	}
}

func TestUnknownTransportKindRejected(t *testing.T) {
	if _, err := NewNetwork(Config{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("expected error for unknown transport kind")
	}
}

// deployment is a full multi-node test fixture: NumPeers peer processes
// (in-process goroutines over real TCP sockets — the same code paths
// cmd/socialchaind runs in separate OS processes).
type deployment struct {
	t      *testing.T
	net    Config
	nodes  []*Node
	addrs  map[string]string
	remote *Remote
}

func startDeployment(t *testing.T, net Config) *deployment {
	t.Helper()
	d := &deployment{t: t, net: net}
	filled := net
	filled.fill()
	d.nodes = make([]*Node, filled.NumPeers)
	for i := 0; i < filled.NumPeers; i++ {
		d.nodes[i] = d.startNode(i, "127.0.0.1:0")
	}
	d.addrs = map[string]string{}
	for _, n := range d.nodes {
		d.addrs[n.ID()] = n.Addr()
	}
	d.joinAll()

	remote, err := Dial(RemoteConfig{Net: net, Peers: d.addrs, RPCTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	d.remote = remote
	t.Cleanup(func() {
		remote.Close()
		for _, n := range d.nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	return d
}

func (d *deployment) startNode(i int, listen string) *Node {
	d.t.Helper()
	n, err := NewNode(NodeConfig{
		Index:  i,
		Listen: listen,
		Net:    d.net,
		Peers:  d.addrs,
	})
	if err != nil {
		d.t.Fatalf("node %d: %v", i, err)
	}
	n.MustDeploy(kvCC{})
	n.Start()
	return n
}

// joinAll gives every process every other process's address (the test
// equivalent of -join flags with pre-agreed ports).
func (d *deployment) joinAll() {
	for _, n := range d.nodes {
		if n == nil {
			continue
		}
		for id, addr := range d.addrs {
			if id != n.ID() {
				n.Transport().AddPeer(id, addr)
			}
		}
	}
}

// waitNodeHeight waits for one node's peer to reach height.
func (d *deployment) waitNodeHeight(n *Node, height uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Peer().Height() >= height {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// chainJSON fetches a peer's full chain over RPC as canonical JSON.
func (d *deployment) chainJSON(peerID string) []byte {
	d.t.Helper()
	blocks, err := d.remote.Blocks(peerID, 0)
	if err != nil {
		d.t.Fatalf("blocks %s: %v", peerID, err)
	}
	enc, err := json.Marshal(blocks)
	if err != nil {
		d.t.Fatalf("marshal blocks: %v", err)
	}
	return enc
}

func TestRemoteDeploymentLifecycle(t *testing.T) {
	net := Config{
		NumPeers:      4,
		IdentitySeed:  "wire-test",
		Cutter:        ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
		CommitTimeout: 20 * time.Second,
	}
	d := startDeployment(t, net)
	gw := d.remote.ChannelAt(0).Gateway(newClient(t))

	const numTx = 8
	for i := 0; i < numTx; i++ {
		key := fmt.Sprintf("k%d", i)
		res, err := gw.Submit("kv", "put", []byte(key), []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("submit %d flag %s", i, res.Flag)
		}
		if res.BlockNum == 0 && i > 0 {
			t.Fatalf("submit %d reported block 0", i)
		}
	}

	// Reads go through the remote evaluate path.
	got, err := gw.Evaluate("kv", "get", []byte("k3"))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if string(got) != "v3" {
		t.Fatalf("evaluate k3 = %q, want v3", got)
	}

	// Every process converges to one chain, verified over the wire: genesis
	// plus one block per (serial) submit.
	for _, n := range d.nodes {
		if !d.waitNodeHeight(n, numTx+1, 15*time.Second) {
			t.Fatalf("node %s stuck at height %d", n.ID(), n.Peer().Height())
		}
		if h, err := d.remote.VerifyChain(n.ID()); err != nil || h < numTx+1 {
			t.Fatalf("verifychain %s: height %d err %v", n.ID(), h, err)
		}
	}
	ref := d.chainJSON(d.nodes[0].ID())
	for _, n := range d.nodes[1:] {
		if got := d.chainJSON(n.ID()); !bytes.Equal(got, ref) {
			t.Fatalf("chain on %s diverges from %s", n.ID(), d.nodes[0].ID())
		}
	}
}

func TestRemoteBatchSubmit(t *testing.T) {
	net := Config{
		NumPeers:     4,
		IdentitySeed: "wire-batch",
		Cutter:       ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
	}
	d := startDeployment(t, net)
	gw := d.remote.ChannelAt(0).Gateway(newClient(t))

	calls := []struct{ k, v string }{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	batch := make([]chaincode.BatchCall, 0, len(calls))
	for _, c := range calls {
		batch = append(batch, chaincode.BatchCall{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte(c.k), []byte(c.v)}})
	}
	res, err := gw.SubmitBatch(batch)
	if err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("batch flag %s", res.Flag)
	}
	for _, c := range calls {
		got, err := gw.Evaluate("kv", "get", []byte(c.k))
		if err != nil || string(got) != c.v {
			t.Fatalf("get %s = %q err %v, want %q", c.k, got, err, c.v)
		}
	}
}

// TestNodeRestartCatchUp kills one durable peer process mid-run, keeps the
// deployment committing, then restarts the process on the same address and
// waits for anti-entropy to close the gap byte-identically.
func TestNodeRestartCatchUp(t *testing.T) {
	net := Config{
		NumPeers:     4,
		IdentitySeed: "wire-restart",
		Cutter:       ordering.CutterConfig{BatchTimeout: 10 * time.Millisecond},
		DataDir:      t.TempDir(),
	}
	d := startDeployment(t, net)
	gw := d.remote.ChannelAt(0).Gateway(newClient(t))

	submit := func(i int) {
		t.Helper()
		res, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("submit %d flag %s", i, res.Flag)
		}
	}
	for i := 0; i < 3; i++ {
		submit(i)
	}

	// Take peer3 down; 3 of 4 endorsers still satisfy the 2/3 policy.
	victim := d.nodes[3]
	victimAddr := victim.Addr()
	if err := victim.Close(); err != nil {
		t.Fatalf("close victim: %v", err)
	}
	d.nodes[3] = nil
	for i := 3; i < 6; i++ {
		submit(i)
	}

	// Restart on the same address; the other processes' reconnect loops
	// find it again and anti-entropy replays the missed blocks.
	d.nodes[3] = d.startNode(3, victimAddr)
	d.joinAll()
	if !d.waitNodeHeight(d.nodes[3], 7, 20*time.Second) { // genesis + six submits
		t.Fatalf("restarted node stuck at height %d", d.nodes[3].Peer().Height())
	}
	ref := d.chainJSON(d.nodes[0].ID())
	if got := d.chainJSON(d.nodes[3].ID()); !bytes.Equal(got, ref) {
		t.Fatal("restarted node's chain diverges after catch-up")
	}
}

// TestOtherChannelAnsweredNoChannel: a request body still names its
// channel, and a node asked about any channel but its own answers with the
// nochannel code.
func TestOtherChannelAnsweredNoChannel(t *testing.T) {
	d := startDeployment(t, Config{NumPeers: 4, IdentitySeed: "wire-nochannel"})
	var h heightResp
	err := call(d.remote.rpc, d.nodes[0].ID(), methodHeight, &channelReq{Channel: "other-channel"}, &h, 3*time.Second)
	if code := transport.ErrCode(err); code != "nochannel" {
		t.Fatalf("node height on another channel: err = %v (code %q), want nochannel", err, code)
	}
	req := submitReq{Channel: "other-channel", Tx: ledger.Transaction{ID: "tx-elsewhere"}}
	_, err = d.remote.rpc.Call(d.nodes[0].ID(), methodSubmit, encode(&req), 3*time.Second)
	if code := transport.ErrCode(err); code != "nochannel" {
		t.Fatalf("node submit on another channel: err = %v (code %q), want nochannel", err, code)
	}
	if h, err := d.remote.ChainHeight(d.nodes[0].ID()); err != nil || h == 0 {
		t.Fatalf("node height on its own channel: %d, %v", h, err)
	}
}

// TestRemoteEndorseRefusedAsBehind: a node that does not reach a
// proposal's MinHeight says so over the wire as ErrBehind, for a single
// call and for a batch alike, so a remote gateway reports an endorser's
// real answer over a behind refusal whichever it submits.
func TestRemoteEndorseRefusedAsBehind(t *testing.T) {
	d := startDeployment(t, Config{NumPeers: 4, IdentitySeed: "wire-behind"})
	client := newClient(t)
	args := [][]byte{[]byte("k"), []byte("v")}
	for name, prop := range map[string]*peer.Proposal{
		"single": {Chaincode: "kv", Fn: "put", Args: args},
		"batch":  {Batch: []chaincode.BatchCall{{Chaincode: "kv", Fn: "put", Args: args}}},
	} {
		prop.ChannelID, prop.Timestamp = d.remote.ChannelAt(0).Name(), time.Now()
		if _, err := prop.Sign(client); err != nil {
			t.Fatal(err)
		}
		prop.MinHeight = 1 << 40
		if _, err := d.remote.ChannelAt(0).endorsers[0].Endorse(prop); !errors.Is(err, ErrBehind) {
			t.Fatalf("%s proposal below MinHeight: %v, want ErrBehind", name, err)
		}
	}
}

// TestEndorseRefusesJSONBody: the endorse body is the codec encoding, and
// a JSON body — what an older build's client sends — is refused with a
// decode error rather than misread.
func TestEndorseRefusesJSONBody(t *testing.T) {
	d := startDeployment(t, Config{NumPeers: 4, IdentitySeed: "wire-json"})
	prop, err := peer.NewProposal(newClient(t), d.remote.ChannelAt(0).Name(), "kv", "put", [][]byte{[]byte("k"), []byte("v")}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"channel": d.remote.ChannelAt(0).Name(), "proposal": prop})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.remote.rpc.Call(d.nodes[0].ID(), methodEndorse, body, 3*time.Second)
	if err == nil || !strings.Contains(err.Error(), codec.ErrCorrupt.Error()) {
		t.Fatalf("JSON endorse body: err = %v, want a decode error", err)
	}
}

// TestWaitCommitCappedAtCommitTimeout: a client's waitcommit for a
// transaction that never commits asks for an hour, and the node answers
// committimeout after its own CommitTimeout instead of pinning a waiter
// until the client's RPC gives up.
func TestWaitCommitCappedAtCommitTimeout(t *testing.T) {
	d := startDeployment(t, Config{NumPeers: 4, IdentitySeed: "wire-waitcap", CommitTimeout: 200 * time.Millisecond})
	start := time.Now()
	req := waitCommitReq{Channel: d.remote.ChannelAt(0).Name(), TxID: "never-submitted", Timeout: time.Hour}
	var resp waitCommitResp
	err := call(d.remote.rpc, d.nodes[0].ID(), methodWaitCommit, &req, &resp, 10*time.Second)
	if code := transport.ErrCode(err); code != codeCommitTimeout {
		t.Fatalf("waitcommit for an hour: err = %v (code %q), want %s", err, code, codeCommitTimeout)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("waitcommit answered after %s, want about the node's 200ms CommitTimeout", took)
	}
}
