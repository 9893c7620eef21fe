//go:build race

package core

// raceEnabled reports a -race build, whose runtime allocates on its own
// behalf and blurs allocation counts.
const raceEnabled = true
