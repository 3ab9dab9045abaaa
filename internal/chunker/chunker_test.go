package chunker

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"socialchain/internal/sim"
)

func reassemble(chunks [][]byte) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

func TestFixedExactMultiple(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 1024)
	chunks, err := ChunkAll(NewFixed(bytes.NewReader(data), 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	for i, c := range chunks {
		if len(c) != 256 {
			t.Fatalf("chunk %d has %d bytes", i, len(c))
		}
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("reassembly mismatch")
	}
}

func TestFixedShortTail(t *testing.T) {
	data := bytes.Repeat([]byte("y"), 1000)
	chunks, err := ChunkAll(NewFixed(bytes.NewReader(data), 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if len(chunks[3]) != 1000-3*256 {
		t.Fatalf("tail chunk %d bytes", len(chunks[3]))
	}
}

func TestFixedEmptyInput(t *testing.T) {
	chunks, err := ChunkAll(NewFixed(bytes.NewReader(nil), 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Fatalf("empty input produced %d chunks", len(chunks))
	}
}

func TestFixedDefaultSize(t *testing.T) {
	c := NewFixed(bytes.NewReader(make([]byte, DefaultChunkSize+1)), 0)
	chunks, err := ChunkAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || len(chunks[0]) != DefaultChunkSize {
		t.Fatalf("default size not applied: %d chunks, first %d bytes", len(chunks), len(chunks[0]))
	}
}

// TestChunkSizedToReader: a reader that reports its remaining length gets
// a read buffer no larger than that, so a small payload's chunk does not
// pin a buffer sized for the largest chunk.
func TestChunkSizedToReader(t *testing.T) {
	data := bytes.Repeat([]byte("s"), 4096)
	for name, c := range map[string]Chunker{
		"fixed":   NewFixed(bytes.NewReader(data), 0),
		"buzhash": NewBuzhash(bytes.NewReader(data)),
	} {
		chunks, err := ChunkAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 1 || len(chunks[0]) != len(data) || cap(chunks[0]) != len(data) {
			t.Fatalf("%s: %d chunks, first len %d cap %d; want one chunk with len == cap == %d",
				name, len(chunks), len(chunks[0]), cap(chunks[0]), len(data))
		}
	}
}

func TestFixedEOFAfterDone(t *testing.T) {
	c := NewFixed(bytes.NewReader([]byte("abc")), 2)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatal("EOF not sticky")
	}
}

func TestFixedPropertyReassembly(t *testing.T) {
	err := quick.Check(func(data []byte, sizeSeed uint16) bool {
		size := int(sizeSeed)%1024 + 1
		chunks, err := ChunkAll(NewFixed(bytes.NewReader(data), size))
		if err != nil {
			return false
		}
		return bytes.Equal(reassemble(chunks), data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuzhashReassembly(t *testing.T) {
	rng := sim.NewRNG(42)
	data := rng.Bytes(3 << 20) // 3 MiB
	chunks, err := ChunkAll(NewBuzhash(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("3 MiB produced only %d chunks", len(chunks))
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("buzhash reassembly mismatch")
	}
}

func TestBuzhashRespectsBounds(t *testing.T) {
	rng := sim.NewRNG(7)
	data := rng.Bytes(4 << 20)
	min, max := 16*1024, 64*1024
	chunks, err := ChunkAll(NewBuzhashParams(bytes.NewReader(data), min, max, 1<<13-1))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if i < len(chunks)-1 && len(c) < min {
			t.Fatalf("chunk %d below min: %d", i, len(c))
		}
		if len(c) > max {
			t.Fatalf("chunk %d above max: %d", i, len(c))
		}
	}
}

func TestBuzhashDeterministic(t *testing.T) {
	rng := sim.NewRNG(1)
	data := rng.Bytes(1 << 20)
	a, _ := ChunkAll(NewBuzhash(bytes.NewReader(data)))
	b, _ := ChunkAll(NewBuzhash(bytes.NewReader(data)))
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

func TestBuzhashBoundaryStability(t *testing.T) {
	// Content-defined chunking: appending data must not change earlier
	// chunk boundaries (the property fixed-size chunking lacks).
	rng := sim.NewRNG(3)
	base := rng.Bytes(2 << 20)
	extended := append(append([]byte(nil), base...), rng.Bytes(512*1024)...)
	a, _ := ChunkAll(NewBuzhash(bytes.NewReader(base)))
	b, _ := ChunkAll(NewBuzhash(bytes.NewReader(extended)))
	if len(a) < 3 {
		t.Skip("not enough chunks to compare")
	}
	// All but the last chunk of the base should reappear unchanged.
	for i := 0; i < len(a)-1; i++ {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("boundary %d shifted after append", i)
		}
	}
}

func TestBuzhashSmallInput(t *testing.T) {
	data := []byte("tiny")
	chunks, err := ChunkAll(NewBuzhash(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || !bytes.Equal(chunks[0], data) {
		t.Fatalf("small input mangled: %v", chunks)
	}
}

func TestBuzhashPropertyReassembly(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64, sizeSeed uint32) bool {
		size := int(sizeSeed % (1 << 20))
		data := sim.NewRNG(seed).Bytes(size)
		chunks, err := ChunkAll(NewBuzhashParams(bytes.NewReader(data), 4096, 16384, 1<<11-1))
		if err != nil {
			return false
		}
		return bytes.Equal(reassemble(chunks), data)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
