// Untrusted crowd: the paper's trust-management story. Crowd-sourced mobile
// users submit observations alongside trusted cameras; an honest citizen's
// trust score climbs through cross-validation with camera data, a dishonest
// troll's score collapses until the trust gate locks them out, and a
// byzantine validator inside the blockchain is tolerated throughout.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"socialchain/internal/consensus"
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
	fw, err := newFramework()
	if err != nil {
		return err
	}
	defer fw.Close()
	fmt.Println("network up with 1 silent byzantine validator out of 4 (tolerated: f=1)")
	if err := scoreCrowd(fw, os.Stdout); err != nil {
		return err
	}
	stats := fw.LedgerStats()
	fmt.Printf("\nledger: height=%d txs=%d valid=%d (byzantine validator never blocked commits)\n",
		stats.Height, stats.TotalTxs, stats.ValidTxs)
	return nil
}

// newFramework builds the scenario's deployment: one silent byzantine
// validator out of four, below the BFT threshold, so the network keeps
// committing.
func newFramework() (*core.Framework, error) {
	return core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers:         4,
			Behaviors:        map[int]consensus.Behavior{2: consensus.Silent{}},
			Cutter:           ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond},
			ConsensusTimeout: time.Second,
		},
		IPFSNodes: 2,
	})
}

// scoreCrowd runs the scenario's eight rounds on fw and writes the score
// table and the final verdicts to w. Everything it writes is a function of
// committed state, so it is the same on every run.
func scoreCrowd(fw *core.Framework, w io.Writer) error {
	// Sources: a trusted camera, an honest citizen, a dishonest troll.
	camera, err := msp.NewSigner("city", "cam-42", msp.RoleTrustedSource)
	if err != nil {
		return err
	}
	citizen, err := msp.NewSigner("crowd", "citizen", msp.RoleUntrustedSource)
	if err != nil {
		return err
	}
	troll, err := msp.NewSigner("crowd", "troll", msp.RoleUntrustedSource)
	if err != nil {
		return err
	}
	if err := fw.RegisterSource(camera.Identity, true); err != nil {
		return err
	}
	if err := fw.RegisterSource(citizen.Identity, false); err != nil {
		return err
	}
	if err := fw.RegisterSource(troll.Identity, false); err != nil {
		return err
	}
	camClient := fw.Client(camera, 0)
	citizenClient := fw.Client(citizen, 0)
	trollClient := fw.Client(troll, 1)

	det := detect.NewDetector(11)
	corpus := dataset.Generate(dataset.Config{Seed: 11, NumVideos: 1, FramesPerVideo: 24, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 8})
	frames := corpus.Static[0].Frames

	fmt.Fprintln(w, "\nround | citizen score | troll score | troll accepted?")
	fmt.Fprintln(w, "------+---------------+-------------+----------------")
	for round := 0; round < 8; round++ {
		// The camera reports the scene (seeds cross-validation references).
		camFrame := frames[round*3]
		camMeta, _ := det.ExtractMetadata(&camFrame)
		if _, err := camClient.StoreFrame(&camFrame, camMeta); err != nil {
			return fmt.Errorf("camera store: %w", err)
		}

		// The citizen reports the same scene truthfully from their phone.
		citizenFrame := frames[round*3+1]
		citizenMeta, _ := det.ExtractMetadata(&citizenFrame)
		citizenMeta.CameraID = "citizen-phone"
		citizenMeta.FrameID = fmt.Sprintf("citizen/frame-%05d", round)
		if _, err := citizenClient.StoreFrame(&citizenFrame, citizenMeta); err != nil {
			return fmt.Errorf("citizen store: %w", err)
		}

		// The troll submits records whose hash never matches the payload.
		trollFrame := frames[round*3+2]
		trollMeta, _ := det.ExtractMetadata(&trollFrame)
		trollMeta.CameraID = "troll-phone"
		trollMeta.FrameID = fmt.Sprintf("troll/frame-%05d", round)
		trollMeta.DataHash = strings.Repeat("d", 64)
		_, trollErr := trollClient.StoreFrame(&trollFrame, trollMeta)

		cs, err := fw.TrustScore(citizen.Identity.ID())
		if err != nil {
			return err
		}
		ts, err := fw.TrustScore(troll.Identity.ID())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5d | %13.3f | %11.3f | %v\n", round+1, cs.Score, ts.Score, trollErr == nil)
	}

	cs, _ := fw.TrustScore(citizen.Identity.ID())
	ts, _ := fw.TrustScore(troll.Identity.ID())
	fmt.Fprintf(w, "\ncitizen: %d accepted, %d rejected, score %.3f (trusted)\n", cs.Accepted, cs.Rejected, cs.Score)
	fmt.Fprintf(w, "troll:   %d accepted, %d rejected, score %.3f, flagged=%v\n", ts.Accepted, ts.Rejected, ts.Score, ts.Flagged)

	// Even a now-honest submission from the troll is gated.
	f := frames[0]
	m, _ := det.ExtractMetadata(&f)
	m.CameraID = "troll-phone"
	if _, err := trollClient.StoreFrame(&f, m); err != nil {
		fmt.Fprintln(w, "troll's well-formed submission rejected by the trust gate, as designed")
	} else {
		fmt.Fprintln(w, "WARNING: troll regained access unexpectedly")
	}
	return nil
}
