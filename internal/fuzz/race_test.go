//go:build race

package fuzz_test

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// the VM's recycled frames at random, so allocation bounds cannot hold.
const raceEnabled = true
