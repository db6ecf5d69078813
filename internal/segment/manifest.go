package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"nlexplain/internal/fault"
)

// ManifestName is the manifest's filename inside a data directory.
const ManifestName = "MANIFEST"

const schemaManifest = 1

// TableRef names one live segment file and the snapshot identity it
// must decode to; recovery re-verifies both.
type TableRef struct {
	Name    string `json:"name"`
	File    string `json:"file"` // relative to the data dir
	Gen     uint64 `json:"gen"`
	Version string `json:"version"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
}

// Manifest is the durable catalog of a checkpoint: the store
// generation it captured, the first WAL file whose records are not
// yet compacted into segments (the replay/truncation point), and the
// live segments. It is the recovery root: files not reachable from
// the current manifest are garbage.
type Manifest struct {
	Schema int        `json:"schema"`
	Gen    uint64     `json:"gen"`
	WALSeq uint64     `json:"wal_seq"`
	Tables []TableRef `json:"tables"`
}

// WriteManifest persists m atomically into dir (tmp + fsync + rename
// + dir fsync): a crash leaves either the previous manifest or the
// new one, never a torn mix. All I/O goes through fsys (nil means the
// OS); a fault injected on the rename leaves the previous manifest
// intact — the property the torn-replace tests pin.
func WriteManifest(fsys fault.FS, dir string, m *Manifest) error {
	fsys = fault.Or(fsys)
	m.Schema = schemaManifest
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := fsys.CreateTemp(dir, ManifestName+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// LoadManifest reads dir's manifest through fsys (nil means the OS).
// ok is false when none exists yet (a fresh data directory).
func LoadManifest(fsys fault.FS, dir string) (m *Manifest, ok bool, err error) {
	data, err := fault.Or(fsys).ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m = &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Schema != schemaManifest {
		return nil, false, fmt.Errorf("%w: manifest schema %d", ErrCorrupt, m.Schema)
	}
	return m, true, nil
}
