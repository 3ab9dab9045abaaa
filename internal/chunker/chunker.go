// Package chunker splits payload streams into blocks before they enter the
// Merkle DAG, matching IPFS's import pipeline. Two strategies are provided:
// fixed-size (IPFS's default 256 KiB splitter) and buzhash content-defined
// chunking, which resists boundary shift when data is edited.
package chunker

import (
	"errors"
	"io"
)

// DefaultChunkSize mirrors the IPFS default splitter size (256 KiB).
const DefaultChunkSize = 256 * 1024

// Chunker produces successive chunks of an input stream. Next returns
// io.EOF after the final chunk.
type Chunker interface {
	Next() ([]byte, error)
}

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

// Next implements Chunker.
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

// Buzhash implements content-defined chunking with a 32-byte rolling hash
// window. Chunk boundaries are declared where the rolling hash matches a
// mask, with minimum and maximum chunk sizes as guard rails, following the
// go-ipfs buzhash chunker's structure.
type Buzhash struct {
	r    io.Reader
	min  int
	max  int
	mask uint32
	buf  []byte
	done bool
}

// Buzhash parameters equivalent to the IPFS defaults.
const (
	buzMin  = 128 * 1024
	buzMax  = 512 * 1024
	buzMask = 1<<17 - 1 // average chunk ~128 KiB past min
)

// NewBuzhash returns a content-defined chunker with default parameters.
func NewBuzhash(r io.Reader) *Buzhash {
	return NewBuzhashParams(r, buzMin, buzMax, buzMask)
}

// NewBuzhashParams returns a content-defined chunker with explicit minimum
// and maximum chunk sizes and boundary mask.
func NewBuzhashParams(r io.Reader, min, max int, mask uint32) *Buzhash {
	if min < 64 {
		min = 64
	}
	if max < min {
		max = min * 2
	}
	return &Buzhash{r: r, min: min, max: max, mask: mask}
}

// Next implements Chunker.
func (c *Buzhash) Next() ([]byte, error) {
	if c.done && len(c.buf) == 0 {
		return nil, io.EOF
	}
	// Fill the buffer up to max bytes.
	for !c.done && len(c.buf) < c.max {
		tmp := make([]byte, readSize(c.r, c.max-len(c.buf)))
		if len(tmp) == 0 {
			c.done = true
			break
		}
		n, err := c.r.Read(tmp)
		c.buf = append(c.buf, tmp[:n]...)
		if err == io.EOF {
			c.done = true
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(c.buf) == 0 {
		return nil, io.EOF
	}
	if len(c.buf) <= c.min {
		out := c.buf
		c.buf = nil
		return out, nil
	}
	cut := c.findBoundary()
	out := c.buf[:cut:cut]
	c.buf = c.buf[cut:]
	return out, nil
}

const buzWindow = 32

// findBoundary scans for the first rolling-hash match past the minimum
// size; it returns the buffer length when no boundary is found.
func (c *Buzhash) findBoundary() int {
	b := c.buf
	end := len(b)
	if end > c.max {
		end = c.max
	}
	start := c.min
	if start < buzWindow {
		start = buzWindow
	}
	if start >= end {
		return end
	}
	var h uint32
	for i := start - buzWindow; i < start; i++ {
		h = rotl(h, 1) ^ buzTable[b[i]]
	}
	for i := start; i < end; i++ {
		if h&c.mask == 0 {
			return i
		}
		h = rotl(h, 1) ^ rotl(buzTable[b[i-buzWindow]], buzWindow) ^ buzTable[b[i]]
	}
	return end
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

func rotl(v uint32, n uint) uint32 { return v<<(n%32) | v>>(32-n%32) }

// ChunkAll drains a chunker into a slice of chunks.
func ChunkAll(c Chunker) ([][]byte, error) {
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
