// Package chunker splits payload streams into fixed-size blocks before they
// enter the Merkle DAG, matching IPFS's default import pipeline (the
// 256 KiB size splitter).
package chunker

import (
	"errors"
	"io"
)

// DefaultChunkSize mirrors the IPFS default splitter size (256 KiB).
const DefaultChunkSize = 256 * 1024

// Fixed is a fixed-size chunker.
type Fixed struct {
	r    io.Reader
	size int
	done bool
}

// NewFixed returns a chunker emitting size-byte chunks (last may be short).
// A non-positive size falls back to DefaultChunkSize.
func NewFixed(r io.Reader, size int) *Fixed {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &Fixed{r: r, size: size}
}

// Next returns the next chunk, and io.EOF after the final one.
func (c *Fixed) Next() ([]byte, error) {
	if c.done {
		return nil, io.EOF
	}
	buf := make([]byte, readSize(c.r, c.size))
	if len(buf) == 0 {
		c.done = true
		return nil, io.EOF
	}
	n, err := io.ReadFull(c.r, buf)
	switch {
	case err == io.EOF:
		c.done = true
		return nil, io.EOF
	case err == io.ErrUnexpectedEOF:
		c.done = true
		return buf[:n], nil
	case err != nil:
		return nil, err
	}
	return buf, nil
}

// readSize is how many bytes to ask r for when up to max are wanted: max,
// or what r reports it has left when it can tell (a bytes.Reader can), so
// a 4 KiB payload is not read into — and its chunk does not pin — a buffer
// sized for the largest chunk.
func readSize(r io.Reader, max int) int {
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < max {
		return l.Len()
	}
	return max
}

// ChunkAll drains a chunker into a slice of chunks.
func ChunkAll(c *Fixed) ([][]byte, error) {
	var out [][]byte
	for {
		chunk, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(chunk) > 0 {
			out = append(out, chunk)
		}
	}
}
