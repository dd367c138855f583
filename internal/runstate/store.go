package runstate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store manages one session's durable data directory:
//
//	<dir>/space.ess       the persisted ESS (written by the session layer)
//	<dir>/runs/<id>.json  one versioned RunState snapshot per durable run
//
// All writes are atomic (temp file in the same directory + rename), so a
// crash mid-write never corrupts the previous snapshot: readers see either
// the old state or the new one, never a torn file.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) the session data directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstate: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// SpacePath returns the path the persisted ESS lives at.
func (st *Store) SpacePath() string { return filepath.Join(st.dir, "space.ess") }

// runPath returns the snapshot path of a run.
func (st *Store) runPath(runID string) string {
	return filepath.Join(st.dir, "runs", runID+".json")
}

// validRunID rejects IDs that would escape the runs directory.
func validRunID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return fmt.Errorf("runstate: invalid run id %q", id)
	}
	return nil
}

// SaveRun atomically persists the snapshot under its RunID. Writes stamped
// with an ownership epoch older than the session's on-disk epoch are
// rejected with ErrFenced: after a failover advanced the epoch, the
// previous owner's late checkpoints must not clobber the new owner's state.
func (st *Store) SaveRun(rs *RunState) error {
	if err := validRunID(rs.RunID); err != nil {
		return err
	}
	// The fence fails closed: an unreadable epoch state (degraded shared FS —
	// exactly the conditions under which failover happens) must block the
	// write, not silently skip the check. LoadEpoch maps not-exist to (0, nil)
	// so single-process deployments never pay for this.
	cur, node, err := st.LoadEpoch()
	if err != nil {
		return fmt.Errorf("runstate: save run %s: fence check: %w", rs.RunID, err)
	}
	if cur > rs.Epoch {
		return fmt.Errorf("%w: run %s stamped epoch %d, session epoch %d (owner %s)",
			ErrFenced, rs.RunID, rs.Epoch, cur, node)
	}
	rs.SchemaVersion = Version
	data, err := json.Marshal(rs)
	if err != nil {
		return fmt.Errorf("runstate: encode run %s: %w", rs.RunID, err)
	}
	return WriteFileAtomic(st.runPath(rs.RunID), data)
}

// Decode parses and validates a serialized run snapshot — the pure half of
// LoadRun, factored out so untrusted bytes (torn files, version skew, fuzz
// inputs) exercise exactly the code recovery runs.
func Decode(data []byte) (*RunState, error) {
	var rs RunState
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("runstate: decode run: %w", err)
	}
	if rs.SchemaVersion != Version {
		return nil, fmt.Errorf("runstate: decode run: unsupported version %d", rs.SchemaVersion)
	}
	return &rs, nil
}

// LoadRun reads and validates a run snapshot.
func (st *Store) LoadRun(runID string) (*RunState, error) {
	if err := validRunID(runID); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(st.runPath(runID))
	if err != nil {
		return nil, fmt.Errorf("runstate: load run %s: %w", runID, err)
	}
	rs, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("runstate: load run %s: %w", runID, err)
	}
	if rs.RunID == "" {
		rs.RunID = runID
	}
	return rs, nil
}

// Runs lists every run snapshot ID in the store, sorted.
func (st *Store) Runs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "runs"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runstate: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		out = append(out, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(out)
	return out, nil
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// followed by a rename, so concurrent readers and post-crash recovery never
// observe a partially written file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("runstate: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("runstate: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("runstate: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runstate: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("runstate: commit %s: %w", path, err)
	}
	return nil
}
