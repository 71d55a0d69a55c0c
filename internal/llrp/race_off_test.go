//go:build !race

package llrp

const raceEnabled = false
