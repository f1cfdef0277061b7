//go:build !race

package testutil

// RaceEnabled reports whether the race detector is compiled in; alloc
// guards skip under it (instrumentation defeats escape analysis, so
// closures that live on the stack in normal builds get heap-counted).
const RaceEnabled = false
