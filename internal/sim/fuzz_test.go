package sim

import "testing"

// FuzzEngine feeds coverage-guided operation sequences through the
// differential interpreter in model_test.go. Run locally with
//
//	go test -fuzz=FuzzEngine ./internal/sim
//
// to explore beyond the checked-in corpus (testdata/fuzz/FuzzEngine); in CI
// the corpus and these seeds run as ordinary tests.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 7, 3})
	f.Add([]byte{0, 5, 4, 0, 6, 63})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 4, 0, 4, 0, 4, 0, 7, 255})
	for _, s := range directedSeqs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("bounded sequence length")
		}
		if _, err := runEngineModel(data); err != nil {
			t.Fatalf("engine diverged from reference: %v (sequence %v)", err, data)
		}
	})
}
