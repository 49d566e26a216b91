package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Manager coordinates one run's checkpoint file across concurrently
// executing simulation points. All methods are safe for concurrent use;
// every mutation is persisted with an atomic Save, so the on-disk file is
// consistent at every instant and a SIGKILL can at worst lose the most
// recent mutation, never corrupt the file.
type Manager struct {
	mu   sync.Mutex
	path string
	file File

	// loadedMarks and loadedDone hold the state read from a resumed file:
	// expectations to verify (marks) and results to serve (journal). They
	// are kept apart from the live file so a resumed run's own fresh marks
	// never masquerade as recorded history.
	loadedMarks map[string]PointMark
	loadedDone  map[string]Entry

	// flush is set by the signal handler to request an immediate mark from
	// every running point, so the file captures current progress rather
	// than the last cadence boundary before the process exits.
	flush atomic.Bool

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
// servable results and the loaded marks become verification obligations;
// the file then continues to accumulate this run's progress.
func Open(path string, d Descriptor) (*Manager, error) {
	f, err := Load(path)
	if err != nil {
		return nil, err
	}
	if f.Descriptor != d {
		want, _ := json.Marshal(f.Descriptor)
		got, _ := json.Marshal(d)
		return nil, fmt.Errorf("checkpoint: %s was written by a different run configuration:\n  checkpoint: %s\n  this run:   %s\nresume with the original flags (-parallel, -solver-shards, -watchdog and -v may differ; everything else must match)",
			path, want, got)
	}
	// The loaded journal and marks carry forward into the live file: a
	// resumed run that is itself interrupted before a point re-marks must
	// not have lost that point's last known barrier.
	m := &Manager{
		path:        path,
		file:        File{Descriptor: d, Done: f.Done, Marks: f.Marks},
		loadedMarks: make(map[string]PointMark, len(f.Marks)),
		loadedDone:  make(map[string]Entry, len(f.Done)),
	}
	for _, pm := range f.Marks {
		m.loadedMarks[pm.Key] = pm
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

// Mark upserts one point's watermark and persists the file. The latest
// mark per key wins: resume only ever needs the most recent barrier.
func (m *Manager) Mark(pm PointMark) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.file.Marks {
		if m.file.Marks[i].Key == pm.Key {
			if m.file.Marks[i].Wedged {
				pm.Wedged = true // a wedged flag is sticky for the point
			}
			m.file.Marks[i] = pm
			m.save()
			return
		}
	}
	m.file.Marks = append(m.file.Marks, pm)
	m.save()
}

// FlagWedged marks the named point's watermark as having been abandoned by
// a watchdog, preserving its last barrier state for post-mortem resume.
func (m *Manager) FlagWedged(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.file.Marks {
		if m.file.Marks[i].Key == key {
			m.file.Marks[i].Wedged = true
			m.save()
			return
		}
	}
	m.file.Marks = append(m.file.Marks, PointMark{Key: key, Wedged: true})
	m.save()
}

// Expected returns the resumed file's watermark for a point, if any: the
// state the replaying point must reproduce exactly when it passes the
// recorded barrier instant.
func (m *Manager) Expected(key string) (PointMark, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pm, ok := m.loadedMarks[key]
	return pm, ok
}

// RequestFlush asks every running point to mark at its next quiescent
// barrier regardless of cadence. The signal handler calls it so the file
// captures up-to-the-moment progress before the process exits.
func (m *Manager) RequestFlush() { m.flush.Store(true) }

// FlushRequested reports whether an immediate mark has been requested.
func (m *Manager) FlushRequested() bool { return m.flush.Load() }

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
