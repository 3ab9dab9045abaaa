package blockstore

import (
	"encoding/binary"
	"fmt"
	"sync"

	"socialchain/internal/cid"
	"socialchain/internal/storage"
)

// Pinner tracks which root CIDs must survive garbage collection. Pinning is
// recursive: GC keeps everything reachable from a pinned root. Pin counts
// live in a storage.KV engine keyed like the blockstore itself; a small
// mutex serialises only the read-modify-write of a count, while lookups and
// root listing go straight to the engine.
type Pinner struct {
	mu sync.Mutex // guards Pin/Unpin count updates
	kv storage.KV
}

// NewPinner returns an empty pin set on the default engine. It panics if
// the default engine cannot open (broken env override).
func NewPinner() *Pinner {
	p, err := NewPinnerWith(storage.Config{})
	if err != nil {
		panic(err)
	}
	return p
}

// NewPinnerWith returns a pin set on the engine cfg selects, reopening a
// durable config's existing pins.
func NewPinnerWith(cfg storage.Config) (*Pinner, error) {
	kv, err := storage.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("blockstore: pinner: %w", err)
	}
	return &Pinner{kv: kv}, nil
}

// Sync flushes the pin set to stable storage.
func (p *Pinner) Sync() error { return p.kv.Sync() }

// Close releases the pin set's engine.
func (p *Pinner) Close() error { return p.kv.Close() }

func pinCount(buf []byte, ok bool) uint64 {
	if !ok || len(buf) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(buf)
}

// Pin increments the pin count of root.
func (p *Pinner) Pin(root cid.Cid) {
	key := blockKey(root)
	p.mu.Lock()
	defer p.mu.Unlock()
	n := pinCount(p.kv.Get(key)) + 1
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, n)
	p.kv.Put(key, buf)
}

// Unpin decrements the pin count; the root is forgotten at zero.
func (p *Pinner) Unpin(root cid.Cid) {
	key := blockKey(root)
	p.mu.Lock()
	defer p.mu.Unlock()
	n := pinCount(p.kv.Get(key))
	switch {
	case n <= 1:
		p.kv.Delete(key)
	default:
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, n-1)
		p.kv.Put(key, buf)
	}
}

// IsPinned reports whether root has a positive pin count.
func (p *Pinner) IsPinned(root cid.Cid) bool {
	return pinCount(p.kv.Get(blockKey(root))) > 0
}

// Roots returns the pinned roots in deterministic order (the engine
// iterates keys, the CIDs' binary forms, in lexical order).
func (p *Pinner) Roots() []cid.Cid {
	var out []cid.Cid
	p.kv.IterPrefix("", func(key string, _ []byte) bool {
		c, err := cid.Cast([]byte(key))
		if err != nil {
			panic("blockstore: undecodable pin key: " + err.Error())
		}
		out = append(out, c)
		return true
	})
	return out
}

// GC removes every block not reachable from a pinned root. reach enumerates
// the CIDs reachable from a root (the DAG walker provides this). It returns
// the number of blocks removed.
func GC(bs Blockstore, p *Pinner, reach func(root cid.Cid) ([]cid.Cid, error)) (int, error) {
	live := make(map[cid.Cid]bool)
	for _, root := range p.Roots() {
		cids, err := reach(root)
		if err != nil {
			return 0, err
		}
		for _, c := range cids {
			live[c] = true
		}
	}
	removed := 0
	for _, c := range bs.AllKeys() {
		if !live[c] {
			if err := bs.Delete(c); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}
