package statedb

import (
	"crypto/sha256"

	"socialchain/internal/codec"
)

// ReadItem records that a transaction read a key at a particular version
// (Exists=false when the key was absent).
type ReadItem struct {
	Namespace string  `json:"ns"`
	Key       string  `json:"key"`
	Version   Version `json:"version"`
	Exists    bool    `json:"exists"`
}

// WriteItem records a pending write or delete.
type WriteItem struct {
	Namespace string `json:"ns"`
	Key       string `json:"key"`
	Value     []byte `json:"value,omitempty"`
	IsDelete  bool   `json:"is_delete,omitempty"`
}

// RWSet is the outcome of simulating a transaction: everything it read
// (with versions) and everything it intends to write. It is the unit over
// which endorsers agree and committers validate.
type RWSet struct {
	Reads  []ReadItem  `json:"reads"`
	Writes []WriteItem `json:"writes"`
}

// AppendTo appends the set's canonical encoding: the reads (namespace,
// key, block, tx, exists) and then the writes (namespace, key, value,
// is-delete), each list behind its length.
func (rw RWSet) AppendTo(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(rw.Reads)))
	for _, r := range rw.Reads {
		b = codec.AppendString(b, r.Namespace)
		b = codec.AppendString(b, r.Key)
		b = codec.AppendUvarint(b, r.Version.BlockNum)
		b = codec.AppendUvarint(b, r.Version.TxNum)
		b = codec.AppendBool(b, r.Exists)
	}
	b = codec.AppendUvarint(b, uint64(len(rw.Writes)))
	for _, w := range rw.Writes {
		b = codec.AppendString(b, w.Namespace)
		b = codec.AppendString(b, w.Key)
		b = codec.AppendBytes(b, w.Value)
		b = codec.AppendBool(b, w.IsDelete)
	}
	return b
}

// DecodeFrom reads what AppendTo wrote; an empty list reads as nil.
func (rw *RWSet) DecodeFrom(r *codec.Reader) {
	rw.Reads, rw.Writes = nil, nil
	if n := r.Count(5); n > 0 {
		rw.Reads = make([]ReadItem, n)
	}
	for i := range rw.Reads {
		it := &rw.Reads[i]
		it.Namespace, it.Key = r.String(), r.String()
		it.Version = Version{BlockNum: r.Uvarint(), TxNum: r.Uvarint()}
		it.Exists = r.Bool()
	}
	if n := r.Count(4); n > 0 {
		rw.Writes = make([]WriteItem, n)
	}
	for i := range rw.Writes {
		it := &rw.Writes[i]
		it.Namespace, it.Key = r.String(), r.String()
		it.Value = r.Bytes()
		it.IsDelete = r.Bool()
	}
}

// Bytes returns the set's canonical encoding on its own — what an
// endorser returns beside its signature for the gateway to compare and
// assemble into the envelope.
func (rw RWSet) Bytes() []byte { return codec.Encode(rw.AppendTo) }

// DecodeRWSet parses a whole set encoded with Bytes.
func DecodeRWSet(b []byte) (RWSet, error) {
	var rw RWSet
	r := codec.NewReader(b)
	rw.DecodeFrom(r)
	return rw, r.Done()
}

// Digest returns a deterministic hash of the read/write set combined with
// the chaincode response; endorsers sign this digest.
func (rw RWSet) Digest(response []byte) []byte {
	var d [sha256.Size]byte
	codec.Scratch(func(b []byte) []byte {
		b = codec.AppendBytes(rw.AppendTo(b), response)
		d = sha256.Sum256(b)
		return b
	})
	return d[:]
}

// DigestEncoded is Digest for a set still in its encoding (Bytes), as an
// endorser returns it.
func DigestEncoded(rwset, response []byte) []byte {
	h := sha256.New()
	h.Write(rwset)
	h.Write(codec.AppendUvarint(nil, uint64(len(response))))
	h.Write(response)
	return h.Sum(nil)
}

// UpdateBatch accumulates writes to apply atomically at commit.
type UpdateBatch struct {
	updates map[string]map[string]WriteItem // ns -> key -> write
}

// NewUpdateBatch returns an empty batch.
func NewUpdateBatch() *UpdateBatch {
	return &UpdateBatch{updates: make(map[string]map[string]WriteItem)}
}

// Put stages a write.
func (b *UpdateBatch) Put(ns, key string, value []byte) {
	b.stage(WriteItem{Namespace: ns, Key: key, Value: value})
}

// Delete stages a deletion.
func (b *UpdateBatch) Delete(ns, key string) {
	b.stage(WriteItem{Namespace: ns, Key: key, IsDelete: true})
}

func (b *UpdateBatch) stage(w WriteItem) {
	m, ok := b.updates[w.Namespace]
	if !ok {
		m = make(map[string]WriteItem)
		b.updates[w.Namespace] = m
	}
	m[w.Key] = w
}

// AddRWSetWrites stages every write of an RWSet.
func (b *UpdateBatch) AddRWSetWrites(rw RWSet) {
	for _, w := range rw.Writes {
		b.stage(w)
	}
}

// Len returns the number of staged writes.
func (b *UpdateBatch) Len() int {
	n := 0
	for _, m := range b.updates {
		n += len(m)
	}
	return n
}
