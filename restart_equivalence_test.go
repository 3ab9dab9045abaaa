// Restart equivalence: killing a durable deployment mid-run and resuming
// from its -data-dir must be indistinguishable — in canonical ledger
// state, secondary indexes, provenance chains and trust state — from a
// run that was never interrupted. This is the end-to-end gate on the
// persistence layer: WAL-backed world state, block logs and durable IPFS
// stores all have to recover exactly for the canonical bytes to match.
// Both restart-capable write paths are exercised: the serial StoreFrame
// loop and the pipelined ingest subsystem.
package socialchain

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
)

// openDurableFramework boots (or reopens) a framework over dataDir. The
// caller owns the Close; reopening requires the previous instance closed.
// transport picks the consensus/fabric wire ("" = in-process).
func openDurableFramework(t *testing.T, dataDir string, transport string) *core.Framework {
	t.Helper()
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 2, BatchTimeout: 2 * time.Millisecond},
		},
		IPFSNodes: 2,
		DataDir:   dataDir,
		Transport: transport,
	})
	if err != nil {
		t.Fatalf("core.New(DataDir=%s): %v", dataDir, err)
	}
	return fw
}

// restartCamera recreates the fixed camera identity a restarted process
// would construct and (re-)registers it — a no-op on a recovered chain.
func restartCamera(t *testing.T, fw *core.Framework) (*core.Client, *msp.Signer) {
	t.Helper()
	cam, err := msp.NewSigner("city", "equiv-cam", msp.RoleTrustedSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		t.Fatal(err)
	}
	return fw.Client(cam, 0), cam
}

// convergePeers lets peer 0 catch up to the freshest peer before its
// state is read.
func convergePeers(t *testing.T, fw *core.Framework) {
	t.Helper()
	var tip uint64
	for _, p := range fw.Net.ChannelAt(0).Peers() {
		if h := p.Ledger().Height(); h > tip {
			tip = h
		}
	}
	if !fw.Net.ChannelAt(0).WaitHeight(tip, 10*time.Second) {
		t.Fatalf("peers did not converge to height %d", tip)
	}
}

// storeRange pushes frames[from:to] through the chosen write path and
// returns the record IDs, in frame order.
func storeRange(t *testing.T, client *core.Client, mode string, frames []*detect.Frame, metas []detect.MetadataRecord, from, to int) []string {
	t.Helper()
	ids := make([]string, to-from)
	if mode == "pipelined" {
		results, err := client.StoreFrames(frames[from:to], metas[from:to], ingest.Config{
			Mode:       ingest.ModePipelined,
			BatchSize:  4,
			AddWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("pipelined store %d: %v", from+r.Index, r.Err)
			}
			ids[r.Index] = r.RecordID
		}
		return ids
	}
	for i := from; i < to; i++ {
		receipt, err := client.StoreFrame(frames[i], metas[i])
		if err != nil {
			t.Fatalf("serial store %d: %v", i, err)
		}
		ids[i-from] = receipt.TxID
	}
	return ids
}

// TestIntegrationRestartEquivalence runs the fixed-seed scenario four
// ways over durable deployments — uninterrupted, stopped/reopened mid-run
// on the serial path, stopped/reopened mid-run on the pipelined path, and
// stopped/reopened mid-run over the TCP transport — and requires
// byte-identical canonical records, identical label-index content,
// identical record history (each peer's history also matching its own
// chain), an intact provenance chain and identical trust state. After a
// restart every record stored before it is retrieved through both IPFS
// nodes — one recovered the payload from its log, the other fetches it
// from that one — and must come back verified and byte-identical.
func TestIntegrationRestartEquivalence(t *testing.T) {
	seed := equivalenceSeed(t)
	t.Logf("restart equivalence seed %d (pin with SOCIALCHAIN_EQUIV_SEED)", seed)
	const n = 18
	frames, metas := equivFrames(t, seed, n)

	runs := []struct {
		name      string
		mode      string
		split     int // restart after this many records (n = never)
		transport string
	}{
		{"uninterrupted", "serial", n, ""},
		{"restart-serial", "serial", n / 2, ""},
		{"restart-pipelined", "pipelined", n / 2, ""},
		// The tcp leg kills and reopens a deployment whose consensus and
		// fabric traffic crosses real sockets; recovery must still be
		// byte-identical to the in-process uninterrupted run.
		{"restart-tcp", "pipelined", n / 2, "tcp"},
	}

	var canonical [][]byte
	var indexCanon, histCanon []string
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			dataDir := t.TempDir()
			fw := openDurableFramework(t, dataDir, run.transport)
			closed := false
			defer func() {
				if !closed {
					fw.Close()
				}
			}()
			client, cam := restartCamera(t, fw)
			stored := storeRange(t, client, run.mode, frames, metas, 0, run.split)

			if run.split < n {
				// "Kill" the process: flush, close every durable store,
				// drop the whole in-memory deployment...
				convergePeers(t, fw)
				fw.Close()
				if err := fw.CloseErr(); err != nil {
					t.Fatalf("close before restart: %v", err)
				}
				// ...and resume from disk alone.
				fw = openDurableFramework(t, dataDir, run.transport)
				reHeight := fw.Net.ChannelAt(0).Peer(0).Ledger().Height()
				if reHeight < 2 {
					t.Fatalf("recovered chain height %d — nothing was resumed", reHeight)
				}
				// A cleanly closed peer reopens at its savepoint: it has
				// no block-log tail to decode, whatever its height.
				for _, p := range fw.Net.ChannelAt(0).Peers() {
					if got := p.Ledger().IOStats().OpenDecoded; got != 0 {
						t.Fatalf("%s decoded %d blocks reopening a cleanly closed chain of %d", p.ID(), got, reHeight)
					}
				}
				client, cam = restartCamera(t, fw)
				for node := 0; node < 2; node++ {
					reader := fw.Client(cam, node)
					for i, id := range stored {
						res, err := reader.RetrieveData(id)
						if err != nil {
							t.Fatalf("retrieve record %d through IPFS node %d after restart: %v", i, node, err)
						}
						if !res.Verified || !bytes.Equal(res.Payload, frames[i].Data) {
							t.Fatalf("record %d through IPFS node %d after restart: verified %v, payload equal %v",
								i, node, res.Verified, bytes.Equal(res.Payload, frames[i].Data))
						}
					}
				}
				storeRange(t, client, run.mode, frames, metas, run.split, n)
			}

			convergePeers(t, fw)
			recs := canonicalRecords(t, fw)
			if len(recs) != n {
				t.Fatalf("%d canonical records, want %d", len(recs), n)
			}
			recJSON, err := json.Marshal(recs)
			if err != nil {
				t.Fatal(err)
			}
			idx := canonicalIndex(t, fw, contracts.IndexLabel)
			idxJSON, _ := json.Marshal(idx)
			// Stores, commits, catch-up waits and state queries never
			// read a block back: the chain is written, not consulted.
			for _, p := range fw.Net.ChannelAt(0).Peers() {
				if got := p.Ledger().IOStats().BlockReads; got != 0 {
					t.Fatalf("%s read %d blocks from its block file on the store and query paths", p.ID(), got)
				}
			}
			// History is read back by reference from the blocks — pre-restart
			// ones included — so it is checked after the no-reads gate.
			hist := canonicalHistory(t, fw.Net.ChannelAt(0).Peer(0))
			if len(hist) != n {
				t.Fatalf("%d record keys have history, want %d", len(hist), n)
			}
			histJSON, _ := json.Marshal(hist)
			canonical = append(canonical, recJSON)
			indexCanon = append(indexCanon, string(idxJSON))
			histCanon = append(histCanon, string(histJSON))
			if len(canonical) > 1 {
				if !bytes.Equal(canonical[0], recJSON) {
					t.Fatalf("canonical state diverged from uninterrupted run:\nfirst: %s\n  now: %s", canonical[0], recJSON)
				}
				if indexCanon[0] != string(idxJSON) {
					t.Fatalf("canonical label index diverged:\nfirst: %s\n  now: %s", indexCanon[0], idxJSON)
				}
				if histCanon[0] != string(histJSON) {
					t.Fatalf("canonical record history diverged from uninterrupted run:\nfirst: %s\n  now: %s", histCanon[0], histJSON)
				}
			}

			checkProvenanceChain(t, fw, client.Gateway(), cam.Identity.ID(), n)

			st, err := fw.TrustScore(cam.Identity.ID())
			if err != nil {
				t.Fatal(err)
			}
			if st.Accepted != n {
				t.Fatalf("trust accepted = %d, want %d", st.Accepted, n)
			}
			if err := fw.Net.ChannelAt(0).Peer(0).Ledger().VerifyChain(); err != nil {
				t.Fatalf("chain verification: %v", err)
			}

			// One final reopen proves the finished run is itself durable.
			convergePeers(t, fw)
			height := fw.Net.ChannelAt(0).Peer(0).Ledger().Height()
			fw.Close()
			if err := fw.CloseErr(); err != nil {
				t.Fatalf("final close: %v", err)
			}
			closed = true
			re := openDurableFramework(t, dataDir, run.transport)
			defer re.Close()
			if got := re.Net.ChannelAt(0).Peer(0).Ledger().Height(); got < height {
				t.Fatalf("final reopen at height %d, had %d", got, height)
			}
			reRecs := canonicalRecords(t, re)
			reJSON, _ := json.Marshal(reRecs)
			if !bytes.Equal(reJSON, recJSON) {
				t.Fatal("state changed across final close/reopen")
			}
			if reHist, _ := json.Marshal(canonicalHistory(t, re.Net.ChannelAt(0).Peer(0))); !bytes.Equal(reHist, histJSON) {
				t.Fatalf("record history changed across final close/reopen:\nbefore: %s\n after: %s", histJSON, reHist)
			}
		})
	}
}
