package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Export writes the chain as one JSON block per line (a portable audit
// dump: auditors can re-verify the hash chain offline, and lagging peers
// can bootstrap from it). JSON is the chain's human-readable form only;
// every other place a block becomes bytes uses its canonical encoding. On
// a log-backed ledger the blocks stream from the file one at a time. An
// in-memory ledger holds blocks as they were assembled — empty slices that
// are not nil, times in a local zone — which JSON would print differently
// from the same block read back from a file, so those pass through the
// canonical encoding first: the dump is a function of the chain, not of
// the backing.
func (l *Ledger) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var werr error
	err := l.walk(0, func(b *Block, _ int64) bool {
		if l.log == nil {
			if b, werr = DecodeBlock(b.AppendTo(nil)); werr != nil {
				return false
			}
		}
		var enc []byte
		if enc, werr = json.Marshal(b); werr != nil {
			return false
		}
		if _, werr = bw.Write(enc); werr != nil {
			return false
		}
		werr = bw.WriteByte('\n')
		return werr == nil
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("ledger: export: %w", err)
	}
	return bw.Flush()
}

// Import reads an Export stream and appends every block, verifying the
// hash chain as it goes (Append re-checks numbering, prev-hash linkage and
// data hashes). The ledger must be an in-memory one at the height the dump
// starts at — usually empty.
func (l *Ledger) Import(r io.Reader) (int, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	n := 0
	for {
		var b Block
		if err := dec.Decode(&b); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("ledger: import block %d: %w", n, err)
		}
		if err := l.Append(&b); err != nil {
			return n, fmt.Errorf("ledger: import: %w", err)
		}
		n++
	}
}

// syncPageBytes stops a BlocksFrom page on a log-backed ledger once its
// frames add up to this much, so one catch-up page stays a few MiB of
// decoded blocks (and of RPC frame) however large the blocks are.
const syncPageBytes = 4 << 20

// BlocksFrom returns up to max blocks starting at number from (max <= 0:
// no count limit), for peer catch-up. A caller that wants more asks again
// from the block after the last one returned; an empty page means from is
// the height.
func (l *Ledger) BlocksFrom(from uint64, max int) ([]*Block, error) {
	var out []*Block
	var bytes int64
	err := l.walk(from, func(b *Block, size int64) bool {
		out = append(out, b)
		bytes += size
		return len(out) != max && bytes < syncPageBytes
	})
	return out, err
}
