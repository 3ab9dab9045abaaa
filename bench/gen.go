package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"socialchain/internal/detect"
	"socialchain/internal/ingest"
	"socialchain/internal/msp"
)

// gen makes every input of a run from the seed: the same seed yields the
// same payload bytes, metadata and read/query choices. The program under
// test sees only what gen produced.
type gen struct {
	state  uint64
	seed   int64
	n      int // records generated so far (names frames, spaces timestamps, cycles labels)
	labels int
	cam    *msp.Signer
	memo   sealMemo
}

// sealMemo remembers each record's hash and signature by record number.
// Both cost milliseconds per MiB, and the set-up generates the same
// preload once per repetition; only the first pays.
type sealMemo map[int]seal

type seal struct {
	hash string
	sig  []byte
}

func newGen(seed int64, labels int, cam *msp.Signer, memo sealMemo) *gen {
	return &gen{state: seedState(seed), seed: seed, labels: labels, cam: cam, memo: memo}
}

func seedState(seed int64) uint64 { return uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03 }

// input is one generated submission plus what the harness needs to check
// it later: the generator state that reproduces the payload byte for byte
// (so stored payloads need not be kept) and the label it will be indexed
// under.
type input struct {
	rec    ingest.Record
	pstate uint64
	label  string
}

// next is splitmix64: fast enough that a round of 1 MiB payloads costs
// tens of milliseconds between the timed segments.
func (g *gen) next() uint64 {
	g.state += 0x9E3779B97F4A7C15
	z := g.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

// payload returns size incompressible bytes no other payload shares, so
// the blockstore never deduplicates a chunk.
func (g *gen) payload(size int) []byte {
	b := make([]byte, (size+7)&^7)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], g.next())
	}
	return b[:size]
}

// payloadAt regenerates the payload a generator in state pstate produced.
func payloadAt(pstate uint64, size int) []byte {
	g := gen{state: pstate}
	return g.payload(size)
}

// epoch anchors every generated timestamp, so metadata does not depend on
// when the benchmark runs.
var epoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// input builds one signed submission: payload, three detections whose
// most confident one carries the record's label, and the hash the
// validation chaincode checks. Labels cycle, so every label holds the same
// number of records whatever the seed.
func (g *gen) input(size int) input {
	i := g.n
	g.n++
	pstate := g.state
	data := g.payload(size)
	label := detect.VehicleLabels[i%g.labels]
	sl, ok := g.memo[i]
	if !ok {
		sum := sha256.Sum256(data)
		sl = seal{hash: hex.EncodeToString(sum[:]), sig: g.cam.Sign(data)}
		g.memo[i] = sl
	}
	at := epoch.Add(time.Duration(i) * time.Second)
	loc := detect.GeoPoint{Latitude: 12.97, Longitude: 77.59}
	dets := make([]detect.Detection, 3)
	for d := range dets {
		dets[d] = detect.Detection{
			Label:       detect.VehicleLabels[g.intn(len(detect.VehicleLabels))],
			Confidence:  float64(50+g.intn(40)) / 100,
			BoundingBox: detect.BoundingBox{X1: 10 * d, Y1: 20, X2: 10*d + 200, Y2: 180},
			Timestamp:   at,
			Color:       detect.VehicleColors[g.intn(len(detect.VehicleColors))],
			Location:    loc,
		}
	}
	dets[0].Label, dets[0].Confidence = label, 0.95
	// Fixed width: a record's size on chain, on disk and in the heap must
	// not depend on how many digits the seed has.
	video := fmt.Sprintf("bench-%016x", uint64(g.seed))
	meta := detect.MetadataRecord{
		FrameID:     detect.FrameIDFor(video, i),
		VideoID:     video,
		CameraID:    g.cam.Identity.Name,
		Platform:    detect.PlatformStatic.String(),
		Detections:  dets,
		CapturedAt:  at,
		ExtractedAt: at,
		SizeBytes:   size,
		DataHash:    sl.hash,
		Location:    loc,
	}
	return input{
		rec: ingest.Record{
			Signed: msp.SignedMessage{Creator: g.cam.Identity, Payload: data, Signature: sl.sig},
			Meta:   meta,
		},
		pstate: pstate,
		label:  label,
	}
}

func (g *gen) inputs(n, size int) []input {
	ins := make([]input, n)
	for i := range ins {
		ins[i] = g.input(size)
	}
	return ins
}
