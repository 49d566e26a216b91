//go:build !simdebug

package sim

// Debug arms the simulator's tripwires: it is false in a release build and
// true under `-tags simdebug` (debug_on.go). It is the only switch. Every
// check is an ordinary function whose body starts with `if !sim.Debug {
// return }`, so a release build type-checks and vets it and then inlines it
// to nothing, and the simdebug build runs the same code.
const Debug = false
