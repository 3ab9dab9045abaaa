package peer

import (
	"fmt"
	"testing"

	"socialchain/internal/msp"
)

// BenchmarkGetHistory times Peer.History().Get on a durable peer for a
// key with 1 entry and one with 32, each written with a 16 KiB value in
// blocks of its own. Warm repeats one key, whose blocks stay in the
// ledger's block cache; cold cycles through keys whose blocks add up to
// more than the 4 MiB cache, so every entry's block is read from the
// file. blockreads/op counts the blocks decoded per call.
func BenchmarkGetHistory(b *testing.B) {
	const (
		value    = 16 << 10
		oneKeys  = 320 // 5 MiB of single-entry blocks
		manyKeys = 10  // x 32 entries: 5 MiB of blocks
		entries  = 32
	)
	p, err := openDurable(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		b.Fatal(err)
	}
	blob := make([]byte, value)
	for i := 0; i < oneKeys; i++ {
		commitCall(b, p, client, "set", []byte(fmt.Sprintf("one/%d", i)), blob)
	}
	for i := 0; i < manyKeys*entries; i++ {
		commitCall(b, p, client, "set", []byte(fmt.Sprintf("many/%d", i%manyKeys)), blob)
	}
	for _, c := range []struct {
		name string
		keys int
		want int
	}{
		{"entries=1/warm", 1, 1},
		{"entries=1/cold", oneKeys, 1},
		{"entries=32/warm", 1, entries},
		{"entries=32/cold", manyKeys, entries},
	} {
		prefix := "one/"
		if c.want == entries {
			prefix = "many/"
		}
		b.Run(c.name, func(b *testing.B) {
			get := func(i int) {
				if got := historyOf(b, p, "counter", fmt.Sprintf("%s%d", prefix, i%c.keys)); len(got) != c.want || len(got[0].Value) != value {
					b.Fatalf("history of %s%d has %d entries, want %d", prefix, i%c.keys, len(got), c.want)
				}
			}
			get(0)
			reads := p.Ledger().IOStats().BlockReads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(p.Ledger().IOStats().BlockReads-reads)/float64(b.N), "blockreads/op")
		})
	}
}
