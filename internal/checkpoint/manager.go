package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Manager coordinates one run's checkpoint file across concurrently
// executing experiments. All methods are safe for concurrent use;
// every mutation is persisted with an atomic Save, so the on-disk file is
// consistent at every instant and a SIGKILL can at worst lose the most
// recent mutation, never corrupt the file.
type Manager struct {
	mu   sync.Mutex
	path string
	file File

	// loadedDone holds the journal read from a resumed file: the results
	// to serve. nil for a fresh checkpoint.
	loadedDone map[string]Entry

	// saveErr remembers the first persistence failure; checkpointing
	// degrades to a warning rather than killing a healthy simulation.
	saveErrOnce sync.Once
	saveErr     error
}

// Create starts a fresh checkpoint at path. It refuses to overwrite an
// existing file — a crashed run's checkpoint is resumed with Open, never
// silently clobbered.
func Create(path string, d Descriptor) (*Manager, error) {
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("checkpoint: %s already exists; resume it with -resume %s or delete it first", path, path)
	}
	m := &Manager{path: path, file: File{Descriptor: d}}
	if err := m.Save(); err != nil {
		return nil, err
	}
	return m, nil
}

// Open resumes the checkpoint at path, validating that it was produced by
// the identical run configuration. The loaded journal entries become
// servable results; the file then continues to accumulate this run's
// progress.
func Open(path string, d Descriptor) (*Manager, error) {
	f, err := Load(path)
	if err != nil {
		return nil, err
	}
	if f.Descriptor != d {
		want, _ := json.Marshal(f.Descriptor)
		got, _ := json.Marshal(d)
		return nil, fmt.Errorf("checkpoint: %s was written by a different run configuration:\n  checkpoint: %s\n  this run:   %s\nresume with the original flags (-parallel, -shards, -solver-shards, -watchdog and -v may differ; everything else must match)",
			path, want, got)
	}
	// The loaded journal carries forward into the live file: a resumed run
	// that is itself interrupted keeps what the first run finished.
	m := &Manager{
		path:       path,
		file:       File{Descriptor: d, Done: f.Done},
		loadedDone: make(map[string]Entry, len(f.Done)),
	}
	for _, e := range f.Done {
		m.loadedDone[e.Name] = e
	}
	return m, nil
}

// FromFlags resolves the -checkpoint/-resume CLI flag pair into a Manager:
// -checkpoint starts fresh (refusing an existing file), -resume loads an
// existing one, neither returns nil. Setting both is an error.
func FromFlags(checkpointPath, resumePath string, d Descriptor) (*Manager, error) {
	switch {
	case checkpointPath != "" && resumePath != "":
		return nil, fmt.Errorf("checkpoint: -checkpoint and -resume are mutually exclusive; -resume continues writing to the resumed file")
	case resumePath != "":
		return Open(resumePath, d)
	case checkpointPath != "":
		return Create(checkpointPath, d)
	}
	return nil, nil
}

// Path returns the checkpoint file's location.
func (m *Manager) Path() string { return m.path }

// Done returns the journaled output of a completed experiment from the
// resumed file, verifying its content hash. A hash mismatch returns false:
// the entry is re-run rather than served corrupted (the CRC should make
// this unreachable, but the journal is the source of published results and
// gets its own belt).
func (m *Manager) Done(name string) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.loadedDone[name]
	if !ok || hashOutput(e.Output) != e.SHA256 {
		return Entry{}, false
	}
	return e, true
}

// RecordDone journals a completed experiment's rendered output and
// persists the file.
func (m *Manager) RecordDone(name, output string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.file.Done {
		if m.file.Done[i].Name == name {
			m.file.Done[i] = Entry{Name: name, SHA256: hashOutput(output), Output: output}
			m.save()
			return
		}
	}
	m.file.Done = append(m.file.Done, Entry{Name: name, SHA256: hashOutput(output), Output: output})
	m.save()
}

// Save persists the current state atomically.
func (m *Manager) Save() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.save()
}

// SaveErr returns the first persistence failure, if any. Checkpoint writes
// never abort a healthy run; callers surface this at exit instead.
func (m *Manager) SaveErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saveErr
}

// save persists under the caller-held lock.
func (m *Manager) save() error {
	err := Save(m.path, &m.file)
	if err != nil {
		m.saveErrOnce.Do(func() { m.saveErr = err })
	}
	return err
}

func hashOutput(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
