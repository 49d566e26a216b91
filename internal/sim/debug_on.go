//go:build simdebug

package sim

// Debug is true under `-tags simdebug`; see debug_off.go.
const Debug = true
