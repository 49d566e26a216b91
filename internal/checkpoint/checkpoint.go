// Package checkpoint makes long simulation runs crash-safe: it persists a
// versioned, self-describing file holding a journal of completed
// experiments' rendered output, each entry with its content hash, so an
// interrupted run can be resumed without re-simulating what it finished.
//
// # Design note — journal, not byte dumps
//
// Pending events in this simulator are closures over live object graphs
// (flows, ports, switches, timers), so the calendar queue has no direct
// serialized form. What the repository does have is a hard determinism
// invariant: every simulation point is a pure function of (options, seed),
// bit-identical at any -parallel and -shards setting. A checkpoint
// therefore records only finished results: RunAll serves journaled
// experiments straight from the file, and an experiment that was in flight
// reruns from virtual time zero, reproducing the bytes the interrupted run
// would have printed. The byte-identity goldens pin that determinism; the
// state version in the envelope refuses a file written under other
// simulation semantics.
//
// # File format
//
// The file is JSON: an outer envelope carrying a magic string, a format
// version, a simulation-state version, and a CRC32 over the raw payload
// bytes; the payload holds the run descriptor and the journal. Loading
// verifies all four before touching the payload, so a truncated,
// corrupted, or version-skewed file fails with a clear error instead of
// resuming into garbage. Saves go through a temp file + fsync + rename in
// the target directory, so a crash mid-write leaves the previous checkpoint
// intact — there is never a moment where the only copy is half-written.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"flowbender/internal/sim"
)

const (
	// Magic identifies checkpoint files.
	Magic = "flowbender-checkpoint"
	// FormatVersion is the envelope layout version. Bump on any change to
	// the envelope or payload schema.
	//
	// 2: the descriptor no longer carries shards or checkpoint_every, and
	// runs no longer write per-point marks.
	FormatVersion = 2
	// StateVersion names the simulation semantics that journaled output
	// depends on. Bump whenever a change moves what an experiment prints or
	// the executed-event counts it reports: a journal written under older
	// semantics would serve output this binary no longer produces, so the
	// file is refused up front.
	//
	// fb-state-2: a port hands an unwaited-for packet to its peer when
	// serialization starts (netsim.Port), so the packet engine executes fewer
	// events.
	//
	// fb-state-3: a port times a transmission when its packet is offered and
	// a host when it is sent (the ledger of netsim.Port): no completion or
	// egress event where nobody needs the instant, so the counts moved again.
	StateVersion = "fb-state-3"
)

// Descriptor pins the run configuration a checkpoint belongs to. Resuming
// under a different configuration is refused: the journal outputs are only
// valid for the exact deterministic run they came from. The front-ends
// build it with experiments.Options.Descriptor, which lists the settings it
// pins next to those it leaves out because the repo's determinism contract
// makes output independent of them (a run may be resumed at a different
// -parallel or -shards setting).
type Descriptor struct {
	// Tool names the producing command and mode, e.g. "fbsim:all" or
	// "fbsim:alltoall".
	Tool      string `json:"tool"`
	Seed      int64  `json:"seed"`
	Scale     string `json:"scale"`
	FlowCount int    `json:"flow_count,omitempty"`
	JobCount  int    `json:"job_count,omitempty"`
	Seeds     int    `json:"seeds,omitempty"`
	// Extra carries tool-specific configuration that alters output
	// (e.g. fbsim's -faults selection or -cdf path).
	Extra string `json:"extra,omitempty"`
}

// PointMark is a simulation point's engine state at a barrier instant, one
// sim.EngineState per shard. No run writes one; the bench's checkpoint
// probe fills File.Marks with them to time Save and Load on a large file.
type PointMark struct {
	Key     string            `json:"key"`
	SimTime int64             `json:"sim_time"`
	Engines []sim.EngineState `json:"engines"`
}

// Entry is one journaled completed experiment: its rendered output and the
// output's SHA-256, so a resumed RunAll can serve the result without
// re-simulating and the reader can detect tampering.
type Entry struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Output string `json:"output"`
}

// File is the checkpoint payload. Marks is empty in every file a run
// writes; only the bench's checkpoint probe fills it.
type File struct {
	Descriptor Descriptor  `json:"descriptor"`
	Done       []Entry     `json:"done"`
	Marks      []PointMark `json:"marks,omitempty"`
}

// envelope is the outer, version-checked wrapper.
type envelope struct {
	Magic   string          `json:"magic"`
	Format  int             `json:"format"`
	State   string          `json:"state"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// Save writes f to path atomically: the payload is marshaled, wrapped in a
// checksummed envelope, written to a temp file in the same directory, and
// renamed into place. A crash at any instant leaves either the old file or
// the new one, never a torn write.
func Save(path string, f *File) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal: %w", err)
	}
	env := envelope{
		Magic:   Magic,
		Format:  FormatVersion,
		State:   StateVersion,
		CRC32:   crc32.ChecksumIEEE(payload),
		Payload: payload,
	}
	// Compact on purpose: indentation would rewrite the embedded payload's
	// bytes and break the checksum's byte-exact contract.
	data, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and validates a checkpoint file. Magic, format version, state
// version, and payload checksum are all verified before the payload is
// decoded, each failure with an error that says what is wrong and what the
// reader expected — a mismatched or corrupted checkpoint must never be
// half-trusted.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file: %w", path, err)
	}
	if env.Magic != Magic {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file (magic %q, want %q)", path, env.Magic, Magic)
	}
	if env.Format != FormatVersion {
		return nil, fmt.Errorf("checkpoint: %s has format version %d; this binary reads version %d — regenerate the checkpoint with the matching tool", path, env.Format, FormatVersion)
	}
	if env.State != StateVersion {
		return nil, fmt.Errorf("checkpoint: %s was written for simulation state %q; this binary is %q — the engine semantics changed, so its journal no longer matches what this binary prints; rerun from scratch", path, env.State, StateVersion)
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.CRC32 {
		return nil, fmt.Errorf("checkpoint: %s payload checksum mismatch (file %08x, computed %08x): the file is corrupted", path, env.CRC32, got)
	}
	var f File
	if err := json.Unmarshal(env.Payload, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: %s payload: %w", path, err)
	}
	return &f, nil
}
