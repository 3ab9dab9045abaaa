// Quickstart: bring up the framework, register a camera, store one traffic
// frame (payload to IPFS, metadata + CID on-chain through BFT consensus),
// and retrieve it back with integrity verification — the minimal end-to-end
// tour of the paper's Figure 1 pipeline.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Start the framework: 4 blockchain peers + 2 IPFS nodes, the five
	// chaincodes deployed, a bootstrap admin enrolled.
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond},
		},
		IPFSNodes: 2,
	})
	if err != nil {
		return err
	}
	defer fw.Close()
	fmt.Println("framework up: 4 peers, 2 IPFS nodes")

	// 2. Register a trusted source (a traffic camera).
	cam, err := msp.NewSigner("city", "cam-001", msp.RoleTrustedSource)
	if err != nil {
		return err
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		return err
	}
	fmt.Printf("registered trusted source %s\n", cam.Identity.ID())

	// 3. Capture a frame and extract its metadata (the YOLO stage).
	corpus := dataset.Generate(dataset.Config{Seed: 42, NumVideos: 1, FramesPerVideo: 1, NumDroneFlights: 1, FramesPerFlight: 1})
	frame := &corpus.Static[0].Frames[0]
	det := detect.NewDetector(42)
	meta, extractTime := det.ExtractMetadata(frame)
	fmt.Printf("extracted %d detections from a %d-byte frame in %v (primary: %s)\n",
		len(meta.Detections), frame.SizeBytes(), extractTime, meta.PrimaryLabel())

	// 4. Store: payload -> IPFS, metadata + CID -> blockchain.
	client := fw.Client(cam, 0)
	receipt, err := client.StoreFrame(frame, meta)
	if err != nil {
		return err
	}
	fmt.Printf("stored: tx=%s\n        cid=%s\n        block=%d\n", receipt.TxID[:16], receipt.CID, receipt.BlockNum)
	fmt.Printf("timing: validate=%v ipfs=%v blockchain=%v\n",
		receipt.Timing.Validate, receipt.Timing.IPFS, receipt.Timing.Blockchain)

	// 5. Retrieve through the other IPFS node and verify integrity.
	reader := fw.Client(cam, 1)
	res, err := reader.RetrieveData(receipt.TxID)
	if err != nil {
		return err
	}
	fmt.Printf("retrieved %d bytes, verified=%v (blockchain=%v ipfs=%v verify=%v)\n",
		len(res.Payload), res.Verified, res.Timing.Blockchain, res.Timing.IPFS, res.Timing.Verify)

	var gotMeta detect.MetadataRecord
	if err := json.Unmarshal(res.Record.Metadata, &gotMeta); err != nil {
		return err
	}
	fmt.Printf("on-chain metadata: frame=%s camera=%s platform=%s hash=%s...\n",
		gotMeta.FrameID, gotMeta.CameraID, gotMeta.Platform, gotMeta.DataHash[:12])

	// The receipt may come from another peer's commit; the stats are
	// peer 0's, so wait for its ledger to hold the block.
	if !fw.Net.ChannelAt(0).WaitHeight(receipt.BlockNum+1, 10*time.Second) {
		return fmt.Errorf("peers did not reach block %d", receipt.BlockNum)
	}
	stats := fw.LedgerStats()
	fmt.Printf("chain: height=%d txs=%d valid=%d\n", stats.Height, stats.TotalTxs, stats.ValidTxs)
	return nil
}
