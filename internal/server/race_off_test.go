//go:build !race

package server

// raceSlowdown scales the wall-clock bounds tests assert (see
// race_on_test.go).
const raceSlowdown = 1
