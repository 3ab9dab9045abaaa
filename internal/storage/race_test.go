package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadCommitStress hammers every engine with parallel point
// reads, prefix scans and batched commits. Run under -race it proves the
// locking discipline; the invariant checks prove readers always observe
// sorted, well-formed views while blocks commit underneath them.
func TestConcurrentReadCommitStress(t *testing.T) {
	for name, kv := range engines(t) {
		t.Run(name, func(t *testing.T) {
			const (
				writers = 4
				readers = 4
				blocks  = 150
				keys    = 64
			)
			stop := make(chan struct{})
			var writerWG, readerWG sync.WaitGroup

			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					for b := 0; b < blocks; b++ {
						batch := make([]Write, 0, keys/4)
						for k := 0; k < keys/4; k++ {
							key := fmt.Sprintf("w%d/key%02d", w, (b+k)%keys)
							if (b+k)%7 == 0 {
								batch = append(batch, Write{Key: key, Delete: true})
							} else {
								batch = append(batch, Write{Key: key, Value: []byte(fmt.Sprintf("w%d-b%d", w, b))})
							}
						}
						kv.ApplyBatch(batch)
					}
				}(w)
			}

			for r := 0; r < readers; r++ {
				readerWG.Add(1)
				go func(r int) {
					defer readerWG.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						key := fmt.Sprintf("w%d/key%02d", r%writers, i%keys)
						if v, ok := kv.Get(key); ok && len(v) == 0 {
							t.Error("observed empty committed value")
							return
						}
						prev := ""
						kv.IterPrefix(fmt.Sprintf("w%d/", i%writers), func(k string, v []byte) bool {
							if k <= prev {
								t.Errorf("iteration out of order: %q after %q", k, prev)
								return false
							}
							if len(v) == 0 {
								t.Errorf("iteration yielded empty value for %q", k)
								return false
							}
							prev = k
							return true
						})
					}
				}(r)
			}

			writerWG.Wait()
			close(stop)
			readerWG.Wait()

			// Quiesced: every surviving key must hold a committed value.
			kv.IterPrefix("", func(k string, v []byte) bool {
				if len(v) == 0 {
					t.Errorf("key %q has empty value after stress", k)
				}
				return true
			})
		})
	}
}
