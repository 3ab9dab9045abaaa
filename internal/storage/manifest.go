package storage

// The manifest is the LSM engine's root pointer: a single walframe-framed
// file naming the live SSTables level by level and the next file number.
// It is
// rewritten atomically (temp file, fsync, rename, directory fsync) on every
// flush and compaction, so a crash at any instant leaves either the old
// manifest or the new one — never a torn root. Files on disk that the
// manifest does not reference are orphans of an interrupted
// flush/compaction and are deleted at open; files it references but that
// are missing or corrupt are a hard error.
//
// The payload is the magic "LSM3", then uvarints: next file number, level
// count, and per level its table count and table file numbers. Older
// builds wrote "LSM2", with the lowest live write-ahead log after the file
// number, and "LSM1", with a live-key count after that; either is refused
// at open, with the directory left as it was: there is no migration.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"socialchain/internal/codec"
	"socialchain/internal/walframe"
)

const (
	manifestName  = "MANIFEST"
	manifestMagic = "LSM3"
)

// errOldManifest is the refusal of a manifest an older build wrote.
var errOldManifest = errors.New("written by an older build; no migration")

// manifestData is the decoded manifest.
type manifestData struct {
	// nextFile is the next SSTable file number.
	nextFile uint64
	// levels lists table file numbers per level, newest first within a
	// level — the search order.
	levels [][]uint64
}

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// encodeManifest returns m's manifest payload.
func encodeManifest(m manifestData) []byte {
	payload := make([]byte, 0, 64)
	payload = append(payload, manifestMagic...)
	payload = codec.AppendUvarint(payload, m.nextFile)
	payload = codec.AppendUvarint(payload, uint64(len(m.levels)))
	for _, lvl := range m.levels {
		payload = codec.AppendUvarint(payload, uint64(len(lvl)))
		for _, fileNo := range lvl {
			payload = codec.AppendUvarint(payload, fileNo)
		}
	}
	return payload
}

// decodeManifest parses a manifest payload. Every count is bounded by the
// bytes left before anything is allocated for it: a level and a table
// number each take at least one byte.
func decodeManifest(payload []byte) (manifestData, error) {
	var m manifestData
	switch magic := string(payload[:min(len(payload), len(manifestMagic))]); magic {
	case manifestMagic:
	case "LSM1", "LSM2":
		return m, fmt.Errorf("is in format %s, %w", magic, errOldManifest)
	default:
		return m, errors.New("bad magic")
	}
	r := codec.NewReader(payload[len(manifestMagic):])
	m.nextFile = r.Uvarint()
	m.levels = make([][]uint64, r.Count(1))
	for i := range m.levels {
		m.levels[i] = make([]uint64, r.Count(1))
		for j := range m.levels[i] {
			m.levels[i][j] = r.Uvarint()
		}
	}
	if err := r.Done(); err != nil {
		return manifestData{}, err
	}
	return m, nil
}

// writeManifest atomically replaces dir's manifest.
func writeManifest(dir string, m manifestData) error {
	payload := encodeManifest(m)
	frame := make([]byte, walframe.HeaderLen, walframe.HeaderLen+len(payload))
	frame = append(frame, payload...)
	walframe.Seal(frame)

	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: manifest tmp: %w", err)
	}
	_, err = f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("storage: manifest write: %w", err)
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return fmt.Errorf("storage: manifest rename: %w", err)
	}
	// fsync the directory so the rename itself survives power loss.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// readManifest loads dir's manifest; ok is false when none exists.
// Because the manifest is always replaced atomically, any framing or
// decode failure is real corruption and a hard error.
func readManifest(dir string) (m manifestData, ok bool, err error) {
	data, rerr := os.ReadFile(manifestPath(dir))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return manifestData{}, false, nil
		}
		return manifestData{}, false, fmt.Errorf("storage: manifest read: %w", rerr)
	}
	payload, next, perr := walframe.Next(data, 0)
	if perr != nil || next != len(data) {
		return manifestData{}, false, fmt.Errorf("storage: manifest %s corrupt: %v", manifestPath(dir), perr)
	}
	m, err = decodeManifest(payload)
	if errors.Is(err, errOldManifest) {
		return manifestData{}, false, fmt.Errorf("storage: manifest %s %w", manifestPath(dir), err)
	}
	if err != nil {
		return manifestData{}, false, fmt.Errorf("storage: manifest %s corrupt: %w", manifestPath(dir), err)
	}
	return m, true, nil
}
