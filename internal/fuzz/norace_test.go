//go:build !race

package fuzz_test

const raceEnabled = false
