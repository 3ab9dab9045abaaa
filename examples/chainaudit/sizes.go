package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"socialchain/internal/contracts"
	"socialchain/internal/ledger"
	"socialchain/internal/statedb"
)

// The -sizes mode answers "what is an envelope made of": it reads block
// logs and splits every byte of them over the parts of a committed
// record, once for records stored one envelope each and once for records
// stored through a batched envelope. A part is measured by encoding the
// envelope with and without it, so the table needs no knowledge of the
// field layout and cannot drift from it; what the named parts leave is
// "the rest", and the whole must add up to the files' sizes.

// maxArgBytes is the ceiling -sizes enforces on what an envelope holds per
// chaincode argument: a 32-byte hash and its share of the list's count.
const maxArgBytes = 40

// maxSingleRecordBytes is the budget -sizes enforces on a single-record
// envelope, on average: the record with its metadata and CID, the
// provenance head, the trust update, a trusted-reference slot and the
// endorsements take about 3 KB, so a second copy of the metadata, or
// any other kilobyte written once per record, breaks it.
const maxSingleRecordBytes = 3500

// frameOverhead is what the log adds to a block's encoding: the 8-byte
// frame header and the format byte.
const frameOverhead = 8 + 1

// envelopeClass is the accounting of one kind of envelope.
type envelopeClass struct {
	envelopes, records, args int
	parts                    map[string]int // part -> bytes, summing to the envelopes' encodings
}

func (c *envelopeClass) add(part string, n int) {
	if c.parts == nil {
		c.parts = make(map[string]int)
	}
	c.parts[part] += n
}

// without returns how many bytes of tx's encoding strip removes. strip
// must replace the slices it empties, not write through them.
func without(tx *ledger.Transaction, strip func(*ledger.Transaction)) int {
	c := *tx
	strip(&c)
	return len(tx.Bytes()) - len(c.Bytes())
}

// writeFamily names the kind of key a write goes to: the namespace and the
// key up to its first '/', or the index a composite key belongs to.
func writeFamily(w statedb.WriteItem) string {
	key := w.Key
	if strings.HasPrefix(key, "\x00") {
		index, _, _ := strings.Cut(key[1:], "\x00")
		return "write " + w.Namespace + " index " + index
	}
	head, _, _ := strings.Cut(key, "/")
	return "write " + w.Namespace + "/" + head
}

// account splits one envelope's encoding over its parts.
func (c *envelopeClass) account(tx *ledger.Transaction) {
	calls := tx.Payload.Calls()
	c.envelopes++
	c.records += len(calls)
	for _, call := range calls {
		c.args += len(call.ArgHashes)
	}
	rest := len(tx.Bytes())
	part := func(name string, n int) {
		c.add(name, n)
		rest -= n
	}
	part("argument hashes", without(tx, func(t *ledger.Transaction) {
		t.Payload.ArgHashes = nil
		t.Payload.Batch = append([]ledger.TxPayload(nil), t.Payload.Batch...)
		for i := range t.Payload.Batch {
			t.Payload.Batch[i].ArgHashes = nil
		}
	}))
	part("endorsements", without(tx, func(t *ledger.Transaction) { t.Endorsements = nil }))
	families := make(map[string]bool)
	for _, w := range tx.RWSet.Writes {
		families[writeFamily(w)] = true
	}
	for family := range families {
		part(family, without(tx, func(t *ledger.Transaction) {
			var kept []statedb.WriteItem
			for _, w := range t.RWSet.Writes {
				if writeFamily(w) != family {
					kept = append(kept, w)
				}
			}
			t.RWSet.Writes = kept
		}))
	}
	part("reads", without(tx, func(t *ledger.Transaction) { t.RWSet.Reads = nil }))
	c.add("the rest (ids, creator, response, signature, counts)", rest)
}

// isStore reports whether every call of the envelope stores a record.
func isStore(tx *ledger.Transaction) bool {
	for _, c := range tx.Payload.Calls() {
		if c.Chaincode != contracts.DataCC || c.Fn != "addData" {
			return false
		}
	}
	return true
}

// runSizes accounts for every byte of the block logs under path (one
// blocks.wal, or a data directory holding any number of them) and fails
// when the parts do not add up to the files, an argument costs more than a
// hash or a single-record envelope more than maxSingleRecordBytes.
func runSizes(w io.Writer, path string) error {
	var logs []string
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && (p == path || d.Name() == "blocks.wal") {
			logs = append(logs, p)
		}
		return err
	})
	if err != nil {
		return err
	}
	if len(logs) == 0 {
		return fmt.Errorf("no blocks.wal under %s", path)
	}

	var single, batched, other envelopeClass
	var fileBytes, framing, blocks int
	for _, p := range logs {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		fileBytes += int(st.Size())
		log, err := ledger.OpenLog(p)
		if err != nil {
			return err
		}
		for _, b := range log.Blocks() {
			blocks++
			framing += frameOverhead + len(b.AppendTo(nil))
			for i := range b.Txs {
				tx := &b.Txs[i]
				framing -= len(tx.Bytes())
				switch {
				case !isStore(tx):
					other.account(tx)
				case len(tx.Payload.Batch) > 0:
					batched.account(tx)
				default:
					single.account(tx)
				}
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
	}

	names := make(map[string]bool)
	total := framing
	for _, c := range []*envelopeClass{&single, &batched, &other} {
		for name, n := range c.parts {
			names[name] = true
			total += n
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "%d block log(s), %d bytes, %d blocks\n\n", len(logs), fileBytes, blocks)
	fmt.Fprintf(w, "%-56s %16s %16s %16s\n", "bytes per record", "single-record", "batched", "other envelopes")
	fmt.Fprintf(w, "%-56s %16d %16d %16d\n", "records (envelopes for the last column)", single.records, batched.records, other.envelopes)
	per := func(n, records int) string {
		if records == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(n)/float64(records))
	}
	sums := [3]int{}
	for _, name := range sorted {
		fmt.Fprintf(w, "%-56s %16s %16s %16s\n", name,
			per(single.parts[name], single.records), per(batched.parts[name], batched.records), per(other.parts[name], other.envelopes))
		sums[0], sums[1], sums[2] = sums[0]+single.parts[name], sums[1]+batched.parts[name], sums[2]+other.parts[name]
	}
	fmt.Fprintf(w, "%-56s %16s %16s %16s\n", "whole envelope",
		per(sums[0], single.records), per(sums[1], batched.records), per(sums[2], other.envelopes))
	fmt.Fprintf(w, "\nblock headers, flags, counts and frames: %d bytes (%.1f per block)\n", framing, float64(framing)/float64(blocks))

	args := single.args + batched.args + other.args
	argBytes := single.parts["argument hashes"] + batched.parts["argument hashes"] + other.parts["argument hashes"]
	fmt.Fprintf(w, "argument hashes: %d bytes for %d arguments (%s per argument, at most %d)\n", argBytes, args, per(argBytes, args), maxArgBytes)
	fmt.Fprintf(w, "parts sum to %d of %d log bytes\n", total, fileBytes)
	if total != fileBytes {
		return fmt.Errorf("the parts add up to %d bytes, the block logs hold %d", total, fileBytes)
	}
	if argBytes > maxArgBytes*args {
		return fmt.Errorf("%d bytes for %d arguments: more than %d per argument, so something other than a hash is recorded", argBytes, args, maxArgBytes)
	}
	if sums[0] > maxSingleRecordBytes*single.records {
		return fmt.Errorf("a single-record envelope averages %s bytes, more than the %d budget", per(sums[0], single.records), maxSingleRecordBytes)
	}
	return nil
}
