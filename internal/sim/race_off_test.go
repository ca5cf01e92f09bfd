//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation guards skip under it (the race runtime allocates on
// paths the guards measure).
const raceEnabled = false
