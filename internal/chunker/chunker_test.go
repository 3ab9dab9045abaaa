package chunker

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
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
	chunks, err := ChunkAll(NewFixed(bytes.NewReader(data), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || len(chunks[0]) != len(data) || cap(chunks[0]) != len(data) {
		t.Fatalf("%d chunks, first len %d cap %d; want one chunk with len == cap == %d",
			len(chunks), len(chunks[0]), cap(chunks[0]), len(data))
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
