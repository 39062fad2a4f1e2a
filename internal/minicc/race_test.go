//go:build race

package minicc

// raceEnabled reports a -race build, whose instrumentation slows the
// lexer several times over, so wall-clock bounds do not apply.
const raceEnabled = true
