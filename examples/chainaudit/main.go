// Chain audit: an external auditor's workflow. After a mixed workload
// (valid and invalid submissions), the auditor inspects the chain with the
// explorer, exports the ledger to a portable dump, re-verifies it offline,
// compares world-state snapshots across peers, and catches a peer up via
// state transfer.
//
// With -sizes PATH it instead reads the block log(s) at PATH — one
// blocks.wal, or a data directory — and prints what a committed record is
// made of, part by part (see sizes.go).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/explorer"
	"socialchain/internal/fabric"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
)

// identitySeed is the deployment's membership: every network built from it
// derives the same four peer identities, which is what lets the fresh peer
// of step 4 check the endorsements on the chain it is handed.
const identitySeed = "chainaudit"

func main() {
	sizes := flag.String("sizes", "", "print bytes per part of the block log(s) at this path instead of running the audit")
	flag.Parse()
	var err error
	if *sizes != "" {
		err = runSizes(os.Stdout, *sizes)
	} else {
		err = run()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers:     4,
			Cutter:       ordering.CutterConfig{MaxMessages: 2, BatchTimeout: 5 * time.Millisecond},
			IdentitySeed: identitySeed,
		},
		IPFSNodes: 2,
	})
	if err != nil {
		return err
	}
	defer fw.Close()

	// Workload: one camera, one honest citizen, one dishonest source.
	cam, _ := msp.NewSigner("city", "audit-cam", msp.RoleTrustedSource)
	crowd, _ := msp.NewSigner("crowd", "audit-crowd", msp.RoleUntrustedSource)
	bad, _ := msp.NewSigner("crowd", "audit-bad", msp.RoleUntrustedSource)
	for _, s := range []*msp.Signer{cam, crowd, bad} {
		trusted := s.Identity.Role == msp.RoleTrustedSource
		if err := fw.RegisterSource(s.Identity, trusted); err != nil {
			return err
		}
	}
	det := detect.NewDetector(31)
	corpus := dataset.Generate(dataset.Config{Seed: 31, NumVideos: 1, FramesPerVideo: 9, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 6})
	frames := corpus.Static[0].Frames
	for i := 0; i < 3; i++ {
		f := frames[i*3]
		m, _ := det.ExtractMetadata(&f)
		if _, err := fw.Client(cam, 0).StoreFrame(&f, m); err != nil {
			return err
		}
		f2 := frames[i*3+1]
		m2, _ := det.ExtractMetadata(&f2)
		m2.CameraID = "crowd-phone"
		if _, err := fw.Client(crowd, 0).StoreFrame(&f2, m2); err != nil {
			return err
		}
		f3 := frames[i*3+2]
		m3, _ := det.ExtractMetadata(&f3)
		m3.DataHash = strings.Repeat("e", 64)
		_, _ = fw.Client(bad, 1).StoreFrame(&f3, m3) // rejected, reported
	}

	// Let all peers converge before auditing.
	var max uint64
	for i := 0; i < 4; i++ {
		if h := fw.Net.ChannelAt(0).Peer(i).Ledger().Height(); h > max {
			max = h
		}
	}
	fw.Net.ChannelAt(0).WaitHeight(max, 10*time.Second)

	// 1. Explorer overview.
	fmt.Println("=== explorer overview (peer 0) ===")
	exp := explorer.New(fw.Net.ChannelAt(0).Peer(0).Ledger())
	exp.RenderStats(os.Stdout)

	fmt.Println("\n=== invalid transactions ===")
	invalid := exp.Search("", "", true)
	for _, tx := range invalid {
		fmt.Printf("  block %d: %s.%s by %s -> %s\n", tx.Block, tx.Chaincode, tx.Fn, tx.Creator, tx.Flag)
	}
	if len(invalid) == 0 {
		fmt.Println("  (none)")
	}

	// The chain names a record's endorsers by key fingerprint; the
	// deployment's identities say whose keys those are.
	fmt.Println("\n=== who vouched for the first stored record ===")
	if stored := exp.Search("data", "", false); len(stored) > 0 {
		tx, err := exp.Tx(stored[0].ID)
		if err != nil {
			return err
		}
		fmt.Printf("  tx %.16s… %s.%s, %d argument hash(es)\n", tx.ID, tx.Chaincode, tx.Fn, len(tx.Calls[0].ArgHashes))
		for _, fp := range tx.Endorsers {
			who := "NOT A MEMBER OF THIS CHANNEL"
			if id, ok := fw.Net.Identities().Resolve(fp); ok {
				who = id.ID()
			}
			fmt.Printf("  endorsed by %s = %s\n", fp, who)
		}
	}

	// 2. Export the ledger and re-verify offline.
	var dump bytes.Buffer
	if err := fw.Net.ChannelAt(0).Peer(0).Ledger().Export(&dump); err != nil {
		return err
	}
	fmt.Printf("\nexported ledger: %d bytes\n", dump.Len())
	blocks, tip, err := ledger.VerifyExport(&dump)
	if err != nil {
		return fmt.Errorf("offline verification: %w", err)
	}
	fmt.Printf("offline check verified %d blocks, tip matches: %v\n",
		blocks, tip == fw.Net.ChannelAt(0).Peer(0).Ledger().TipHash())

	// 3. World-state snapshots must be byte-identical across peers.
	var s0, s1 bytes.Buffer
	if err := fw.Net.ChannelAt(0).Peer(0).State().Snapshot(&s0); err != nil {
		return err
	}
	if err := fw.Net.ChannelAt(0).Peer(1).State().Snapshot(&s1); err != nil {
		return err
	}
	fmt.Printf("world-state snapshots: peer0=%d bytes, identical across peers: %v\n",
		s0.Len(), bytes.Equal(s0.Bytes(), s1.Bytes()))

	// 4. State transfer: a brand-new network's peer bootstraps from our
	// freshest peer and lands on the same tip. It re-validates every block,
	// so it has to know the channel's members: same identity seed.
	aux, err := fabric.NewNetwork(fabric.Config{NumPeers: 4, IdentitySeed: identitySeed})
	if err != nil {
		return err
	}
	for _, cc := range contractsAll() {
		if err := aux.Deploy(cc); err != nil {
			return err
		}
	}
	applied, err := aux.ChannelAt(0).Peer(0).SyncFrom(fw.Net.ChannelAt(0).Peer(0))
	if err != nil {
		return fmt.Errorf("state transfer: %w", err)
	}
	fmt.Printf("state transfer: fresh peer applied %d blocks, tip matches: %v\n",
		applied, aux.ChannelAt(0).Peer(0).Ledger().TipHash() == fw.Net.ChannelAt(0).Peer(0).Ledger().TipHash())
	return nil
}
