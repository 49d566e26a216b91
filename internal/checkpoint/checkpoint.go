// Package checkpoint makes long simulation runs crash-safe: it persists a
// versioned, self-describing file holding (1) a journal of completed
// experiments' rendered output, keyed by content hash, and (2) per-point
// engine watermarks taken at quiescent barriers, so an interrupted run can
// be resumed and *proven* byte-identical to an uninterrupted one.
//
// # Design note — watermarks, not byte dumps
//
// Pending events in this simulator are closures over live object graphs
// (flows, ports, switches, timers), so the calendar queue has no direct
// serialized form. What the repository does have is a hard determinism
// invariant: every simulation point is a pure function of (options, seed),
// bit-identical at any -parallel and -shards setting. A checkpoint
// therefore records *where* each in-flight point was — virtual time plus a
// sim.EngineState per shard, whose QueueDigest fingerprints every pending
// event's (time, stamp, seq) key in pop order — and restore re-executes
// the point deterministically, cross-checking the recorded watermark as
// the replay passes it (sim.Engine.VerifyRestore). Anything regenerable
// (ECMP memos, hash-prefix caches, flowlet tables, free lists) is
// deliberately not recorded: the queue digest is downstream of all of it,
// so a single diverging RNG draw or reordered event trips verification
// instead of corrupting results. Completed work is never re-executed —
// RunAll serves journaled experiments straight from the file.
//
// # File format
//
// The file is JSON: an outer envelope carrying a magic string, a format
// version, a simulation-state version, and a CRC32 over the raw payload
// bytes; the payload holds the run descriptor, the journal, and the marks.
// Loading verifies all four before touching the payload, so a truncated,
// corrupted, or version-skewed file fails with a clear error instead of
// resuming into garbage. Saves go through a temp file + rename in the
// target directory, so a crash mid-write leaves the previous checkpoint
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
	FormatVersion = 1
	// StateVersion names the simulation semantics this checkpoint's
	// watermarks depend on. Bump whenever event ordering, RNG stream
	// layout, or scheduling semantics change: watermarks from an older
	// state cannot verify against the new engine and must be rejected up
	// front rather than failing mid-replay.
	//
	// fb-state-2: a port hands an unwaited-for packet to its peer when
	// serialization starts (netsim.Port), so the packet engine executes fewer
	// events and every packet watermark's Seq, Executed and QueueDigest
	// differ from fb-state-1's.
	//
	// fb-state-3: a port times a transmission when its packet is offered and
	// a host when it is sent (the ledger of netsim.Port): no completion or
	// egress event where nobody needs the instant, so the counts moved again.
	StateVersion = "fb-state-3"
)

// Descriptor pins the run configuration a checkpoint belongs to. Resuming
// under a different configuration is refused: the journal outputs and the
// watermarks are only valid for the exact deterministic run they came
// from. The front-ends build it with experiments.Options.Descriptor, which
// lists the settings it pins next to those it leaves out because the repo's
// determinism contract makes output independent of them (a run may be
// resumed at a different -parallel setting; -shards changes the per-shard
// engine states and so must match).
type Descriptor struct {
	// Tool names the producing command and mode, e.g. "fbsim:all" or
	// "fbsim:alltoall".
	Tool      string `json:"tool"`
	Seed      int64  `json:"seed"`
	Scale     string `json:"scale"`
	FlowCount int    `json:"flow_count,omitempty"`
	JobCount  int    `json:"job_count,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	Seeds     int    `json:"seeds,omitempty"`
	// CheckpointEvery is the watermark cadence in virtual nanoseconds. It
	// must match across resume: marks are taken on the cadence grid, and a
	// resumed run verifies them by passing the same grid instants.
	CheckpointEvery int64 `json:"checkpoint_every"`
	// Extra carries tool-specific configuration that alters output
	// (e.g. fbsim's -faults selection or -cdf path).
	Extra string `json:"extra,omitempty"`
}

// PointMark is one in-flight simulation point's watermark: the quiescent
// barrier instant it had reached and the engine state of every shard
// (serial points have exactly one).
type PointMark struct {
	Key     string            `json:"key"`
	SimTime int64             `json:"sim_time"`
	Engines []sim.EngineState `json:"engines"`
	// Wedged records that a wall-clock watchdog fired while this point was
	// running: the mark preserves the last good barrier state of a run
	// that would otherwise have been discarded.
	Wedged bool `json:"wedged,omitempty"`
}

// Entry is one journaled completed experiment: its rendered output and the
// output's SHA-256, so a resumed RunAll can serve the result without
// re-simulating and the reader can detect tampering.
type Entry struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Output string `json:"output"`
}

// File is the checkpoint payload.
type File struct {
	Descriptor Descriptor  `json:"descriptor"`
	Done       []Entry     `json:"done"`
	Marks      []PointMark `json:"marks"`
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
		return nil, fmt.Errorf("checkpoint: %s was written for simulation state %q; this binary is %q — the engine semantics changed, so its watermarks cannot be verified; rerun from scratch", path, env.State, StateVersion)
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
