package ipfs

import (
	"fmt"
	"testing"

	"socialchain/internal/sim"
)

func BenchmarkAddLocal(b *testing.B) {
	for _, size := range []int{64 * 1024, 1 << 20} {
		b.Run(fmt.Sprintf("size=%dKB", size/1024), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{Nodes: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(1)
			payloads := make([][]byte, 8)
			for i := range payloads {
				payloads[i] = rng.Bytes(size)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Node(0).Add(payloads[i%len(payloads)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGetCrossNodeCold(b *testing.B) {
	// Every iteration adds fresh content on node 0 and fetches it cold on
	// node 1, measuring the bitswap transfer.
	c, err := NewCluster(ClusterConfig{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	const size = 256 * 1024
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root, err := c.Node(0).Add(rng.Bytes(size))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Node(1).Get(root); err != nil {
			b.Fatal(err)
		}
	}
}
