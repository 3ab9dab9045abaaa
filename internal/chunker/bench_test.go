package chunker

import (
	"bytes"
	"testing"

	"socialchain/internal/sim"
)

func BenchmarkFixedChunker(b *testing.B) {
	data := sim.NewRNG(1).Bytes(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChunkAll(NewFixed(bytes.NewReader(data), DefaultChunkSize)); err != nil {
			b.Fatal(err)
		}
	}
}
