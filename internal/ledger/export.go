package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Export writes the chain as one JSON block per line, streamed from the
// block file one block at a time: a portable audit dump that VerifyExport
// re-checks offline. JSON is the chain's human-readable form only; every
// other place a block becomes bytes uses its canonical encoding, and a
// block read back from the file prints the same on every replica.
func (l *Ledger) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var werr error
	err := l.walk(0, func(b *Block, _ int64) bool {
		werr = enc.Encode(b)
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

// VerifyExport re-checks an Export stream offline, block by block, with
// the check VerifyChain runs: numbering from 0, prev-hash linkage, data
// hashes and one flag per transaction. It returns the number of blocks
// the stream holds and the hash of the last one's header, to compare with
// the tip of the ledger the dump came from; an empty stream is an empty
// chain.
func VerifyExport(r io.Reader) (blocks int, tip [32]byte, err error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var c linker
	for {
		var b Block
		if err := dec.Decode(&b); err == io.EOF {
			return int(c.n), c.tip, nil
		} else if err != nil {
			return int(c.n), c.tip, fmt.Errorf("ledger: export block %d: %w", c.n, err)
		}
		if err := c.next(&b); err != nil {
			return int(c.n), c.tip, fmt.Errorf("ledger: export: %w", err)
		}
	}
}

// syncPageBytes stops a BlocksFrom page once its frames add up to this
// much, so one catch-up page stays a few MiB of decoded blocks (and of RPC
// frame) however large the blocks are.
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
