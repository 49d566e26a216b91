package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowbender/internal/sim"
)

func testDesc() Descriptor {
	return Descriptor{Tool: "test", Seed: 7, Scale: "tiny", Seeds: 2}
}

func testFile() *File {
	return &File{
		Descriptor: testDesc(),
		Done:       []Entry{{Name: "alltoall", SHA256: hashOutput("table\n"), Output: "table\n"}},
		Marks: []PointMark{{
			Key:     "alltoall/load=0.4/ECMP/seed=7",
			SimTime: int64(10 * sim.Millisecond),
			Engines: []sim.EngineState{{Now: 10 * sim.Millisecond, Seq: 123, Executed: 100, Pending: 4, QueueDigest: 0xdead}},
		}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := testFile()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("round trip changed the file:\n want %s\n got  %s", wj, gj)
	}
}

// mutateEnvelope rewrites one envelope field of a saved checkpoint.
func mutateEnvelope(t *testing.T, path string, mutate func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	mutate(env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsMismatches(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(map[string]any)
		wantErr string
	}{
		{"magic", func(e map[string]any) { e["magic"] = "something-else" }, "not a checkpoint file"},
		{"format", func(e map[string]any) { e["format"] = FormatVersion + 1 }, "format version"},
		{"state", func(e map[string]any) { e["state"] = "fb-state-0" }, "simulation state"},
		// The version before the port hand-off: same schema, different
		// event counts, so only this check refuses its journal.
		{"state-1", func(e map[string]any) { e["state"] = "fb-state-1" }, `simulation state "fb-state-1"; this binary is "fb-state-3"`},
		// The hand-off without the ledger: again only the event counts moved.
		{"state-2", func(e map[string]any) { e["state"] = "fb-state-2" }, `simulation state "fb-state-2"; this binary is "fb-state-3"`},
		{"crc", func(e map[string]any) { e["crc32"] = float64(12345) }, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := Save(path, testFile()); err != nil {
				t.Fatal(err)
			}
			mutateEnvelope(t, path, tc.mutate)
			_, err := Load(path)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Load error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, testFile()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a truncated file")
	}
}

func TestManagerLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m, err := Create(path, testDesc())
	if err != nil {
		t.Fatal(err)
	}
	if m.loadedDone != nil {
		t.Fatal("fresh manager claims to be resumed")
	}

	// Create refuses to clobber.
	if _, err := Create(path, testDesc()); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("second Create = %v, want already-exists refusal", err)
	}

	m.RecordDone("alltoall", "rendered output\n")

	// Resume and check everything came back.
	r, err := Open(path, testDesc())
	if err != nil {
		t.Fatal(err)
	}
	if r.loadedDone == nil {
		t.Fatal("Open result not marked resumed")
	}
	if e, ok := r.Done("alltoall"); !ok || e.Output != "rendered output\n" {
		t.Fatalf("Done = %+v, %v", e, ok)
	}
	if _, ok := r.Done("table1"); ok {
		t.Fatal("Done returned an unjournaled experiment")
	}

	// A resumed run journals on top of what it loaded.
	r.RecordDone("table1", "second table\n")
	r2, err := Open(path, testDesc())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alltoall", "table1"} {
		if _, ok := r2.Done(name); !ok {
			t.Fatalf("second resume lost %s from the journal", name)
		}
	}
}

func TestOpenRejectsDescriptorMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Create(path, testDesc()); err != nil {
		t.Fatal(err)
	}
	d := testDesc()
	d.Seed = 8
	if _, err := Open(path, d); err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("Open with changed seed = %v, want configuration refusal", err)
	}
}

func TestDoneRejectsTamperedOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := testFile()
	f.Done[0].Output = "tampered\n" // hash no longer matches
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, testDesc())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Done("alltoall"); ok {
		t.Fatal("Done served an entry whose hash does not match")
	}
}

func TestFromFlags(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "a.ckpt")

	if m, err := FromFlags("", "", testDesc()); err != nil || m != nil {
		t.Fatalf("FromFlags with no flags = %v, %v", m, err)
	}
	if _, err := FromFlags(fresh, fresh, testDesc()); err == nil {
		t.Fatal("FromFlags accepted both flags at once")
	}
	m, err := FromFlags(fresh, "", testDesc())
	if err != nil || m == nil {
		t.Fatalf("FromFlags create = %v, %v", m, err)
	}
	r, err := FromFlags("", fresh, testDesc())
	if err != nil || r == nil || r.loadedDone == nil {
		t.Fatalf("FromFlags resume = %v, %v", r, err)
	}
	if _, err := FromFlags("", filepath.Join(dir, "missing.ckpt"), testDesc()); err == nil {
		t.Fatal("FromFlags resumed a missing file")
	}
}
