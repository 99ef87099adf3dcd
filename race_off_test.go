//go:build !race

package sspubsub

const raceEnabled = false
