//go:build !race

package minicc

const raceEnabled = false
