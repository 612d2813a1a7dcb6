package fuzz_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"octopocs/internal/cfg"
	"octopocs/internal/corpus"
	"octopocs/internal/fuzz"
)

// pinnedKey renders every deterministic field of a campaign result, with
// the crash input as its SHA-256.
func pinnedKey(r *fuzz.Result) string {
	sum := sha256.Sum256(r.Crash)
	return fmt.Sprintf("found=%v execs=%d queue=%d winner=%d loc=%v crash=%s",
		r.Found, r.Execs, r.QueueLen, r.WinnerShard, r.CrashLoc, hex.EncodeToString(sum[:]))
}

// TestCampaignPinned pins three whole campaign trajectories, not just
// their agreement across worker counts: any change to the harness, the
// coverage fold, the schedules or the mutator that alters which inputs run
// or which get admitted moves an exec count, a queue length or the crash
// bytes. The first two are Table V's gif2png campaigns (400k budget, seed
// 3, as octobench runs them); the third is the masked arm of row 20's
// hybrid fallback, a two-shard directed campaign that exhausts its budget.
func TestCampaignPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("replays full fuzzing campaigns")
	}
	gif := corpus.ByIdx(9)
	gifTarget := &fuzz.Target{Prog: gif.Pair.T, Lib: gif.Pair.Lib, MaxSteps: 200_000}
	gifCfg := fuzz.Config{Seeds: [][]byte{gif.Pair.PoC}, MaxExecs: 400_000, Seed: 3}

	mag := corpus.ByIdx(20)
	magTarget := &fuzz.Target{Prog: mag.Pair.T, Lib: mag.Pair.Lib, MaxSteps: 2_000_000}

	tests := []struct {
		name string
		run  func() (*fuzz.Result, error)
		want string
	}{
		{"gif2png/AFLFast", func() (*fuzz.Result, error) {
			return fuzz.RunAFLFast(gifTarget, gifCfg), nil
		}, "found=true execs=75186 queue=17 winner=0 loc=gif_read_image:2:5 crash=72c77cf5dfe4920545e6274e06f1e2342489502f53355c478d7b5c2e59f7efa1"},
		{"gif2png/AFLGo", func() (*fuzz.Result, error) {
			return fuzz.RunAFLGo(gifTarget, "gif_read_image", gifCfg)
		}, "found=true execs=75567 queue=21 winner=0 loc=gif_read_image:2:5 crash=b8617a004fcda13a5bff93a71e6ad99270869a8ff58c6dc269626759d5fae616"},
		{"twomag/masked-directed", func() (*fuzz.Result, error) {
			dists := cfg.Build(mag.Pair.T).DistancesTo("decode")
			return fuzz.RunDirected(magTarget, "decode", dists, fuzz.Config{
				Seeds:       [][]byte{mag.Pair.PoC},
				MaxExecs:    60_000,
				Seed:        1,
				MaxInputLen: 128,
				Frozen:      []fuzz.Span{{Start: 8, Len: 1}},
				Shards:      2,
				Workers:     2,
			}), nil
		}, "found=false execs=60000 queue=12 winner=-1 loc=:0:0 crash=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinnedKey(res); got != tt.want {
				t.Errorf("campaign moved:\n got %s\nwant %s", got, tt.want)
			}
		})
	}
}
