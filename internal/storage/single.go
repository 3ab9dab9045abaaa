package storage

import (
	"sort"
	"strings"
	"sync"
)

// Single is the single-lock engine: one map guarded by one RWMutex, the
// exact concurrency profile of the seed's stores. Reads share the lock;
// any write excludes everything.
type Single struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewSingle returns an empty single-lock engine.
func NewSingle() *Single {
	return &Single{data: make(map[string][]byte)}
}

// Get implements KV.
func (s *Single) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// IterPrefix implements KV: entries are collected under the read lock,
// sorted, and fn runs lock-free on the collected view.
func (s *Single) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	s.mu.RLock()
	entries := collectPrefix(s.data, prefix, nil)
	s.mu.RUnlock()
	sortEntries(entries)
	for _, e := range entries {
		if !fn(e.key, e.value) {
			return
		}
	}
}

// ApplyBatch implements KV: one lock acquisition for the whole batch.
func (s *Single) ApplyBatch(writes []Write) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range writes {
		if w.Delete {
			delete(s.data, w.Key)
			continue
		}
		s.data[w.Key] = w.Value
	}
}

// Close implements KV; the in-memory engine holds no resources.
func (s *Single) Close() error { return nil }

// entry is one collected (key, value) pair of an iteration.
type entry struct {
	key   string
	value []byte
}

// collectPrefix appends all prefix-matching pairs of data to dst. Caller
// holds the lock guarding data.
func collectPrefix(data map[string][]byte, prefix string, dst []entry) []entry {
	for k, v := range data {
		if strings.HasPrefix(k, prefix) {
			dst = append(dst, entry{key: k, value: v})
		}
	}
	return dst
}

func sortEntries(entries []entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
}
