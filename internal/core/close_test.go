package core

import (
	"runtime"
	"testing"
	"time"

	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
)

// liveHeap is the heap in use after two forced collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestClosedFrameworkLetsGo: a Client kept past its Framework's Close keeps
// the closed deployment reachable — gateway, network, nodes, validators,
// ledgers, transports — and must pin no more than their structs: no
// instance log, decided digests, queued consensus messages, bus inbox,
// block cache or append buffer.
func TestClosedFrameworkLetsGo(t *testing.T) {
	corpus := dataset.Generate(dataset.Config{Seed: 9, NumVideos: 1, FramesPerVideo: 60, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 4})
	det := detect.NewDetector(9)
	fw, err := New(Config{
		Fabric:    fabric.Config{NumPeers: 4, Cutter: ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond}},
		IPFSNodes: 2,
		DataDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cam, err := msp.NewSigner("city", "close-cam", msp.RoleTrustedSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		t.Fatal(err)
	}
	client := fw.Client(cam, 0)
	for i := range corpus.Static[0].Frames {
		f := &corpus.Static[0].Frames[i]
		meta, _ := det.ExtractMetadata(f)
		receipt, err := client.StoreFrame(f, meta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.RetrieveData(receipt.TxID); err != nil {
			t.Fatal(err)
		}
	}
	fw.Close()
	if err := fw.CloseErr(); err != nil {
		t.Fatal(err)
	}
	fw = nil
	kept := liveHeap()
	runtime.KeepAlive(client)
	client = nil
	pinned := kept - liveHeap()
	const bound = 256 << 10
	t.Logf("a client kept past Close pins %d KB", pinned>>10)
	if pinned > bound {
		t.Fatalf("a client kept past Close pins %d KB of the closed deployment, want at most %d KB", pinned>>10, bound>>10)
	}
}
