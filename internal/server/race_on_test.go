//go:build race

package server

// raceSlowdown scales the wall-clock bounds tests assert: the race
// detector slows the decision path by roughly this much.
const raceSlowdown = 10
