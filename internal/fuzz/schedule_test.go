package fuzz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"octopocs/internal/isa"
)

func TestBucketClassification(t *testing.T) {
	tests := []struct {
		hits uint32
		want uint8
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {4, 8}, {7, 8},
		{8, 16}, {15, 16}, {16, 32}, {31, 32}, {32, 64},
		{127, 64}, {128, 128}, {100000, 128},
	}
	for _, tt := range tests {
		if got := bucket(tt.hits); got != tt.want {
			t.Errorf("bucket(%d) = %d, want %d", tt.hits, got, tt.want)
		}
	}
}

func TestAFLFastEnergyShape(t *testing.T) {
	h := newHarness(&Target{Prog: &isa.Program{}}, nil)
	s := &seedInfo{pathID: 1}

	// Energy grows exponentially with how often the seed was picked.
	h.pathFreq[1] = 1
	prev := 0
	for fuzzed := 0; fuzzed <= 6; fuzzed++ {
		s.fuzzed = fuzzed
		e := aflfastEnergy(s, h, 0)
		if e < prev {
			t.Errorf("energy decreased at s(i)=%d: %d -> %d", fuzzed, prev, e)
		}
		prev = e
	}

	// Energy shrinks as the path gets hammered.
	s.fuzzed = 6
	h.pathFreq[1] = 1
	hot := aflfastEnergy(s, h, 0)
	h.pathFreq[1] = 1 << 20
	cold := aflfastEnergy(s, h, 0)
	if cold >= hot {
		t.Errorf("hammered path energy %d should undercut rare path energy %d", cold, hot)
	}

	// Bounds hold everywhere.
	err := quick.Check(func(fuzzed uint8, freq uint32) bool {
		s.fuzzed = int(fuzzed)
		h.pathFreq[1] = int64(freq) + 1
		e := aflfastEnergy(s, h, 0)
		return e >= 8 && e <= 1024
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAFLGoEnergyAnnealing(t *testing.T) {
	h := newHarness(&Target{Prog: &isa.Program{}}, nil)
	h.pathFreq[1] = 4
	near := &seedInfo{pathID: 1, fuzzed: 3, dist: 1}
	far := &seedInfo{pathID: 1, fuzzed: 3, dist: 100000}

	// Early in the campaign (exploration) the distance barely matters;
	// late (exploitation) the near seed must dominate.
	lateNear := aflgoEnergy(near, h, 0.95)
	lateFar := aflgoEnergy(far, h, 0.95)
	if lateNear <= lateFar {
		t.Errorf("late campaign: near %d should outrank far %d", lateNear, lateFar)
	}

	// Unreachable seeds still get a sliver of energy.
	inf := &seedInfo{pathID: 1, fuzzed: 3, dist: math.Inf(1)}
	if e := aflgoEnergy(inf, h, 0.5); e < 1 {
		t.Errorf("unreachable seed energy = %d, want >= 1", e)
	}
}

func TestMutatorInvariants(t *testing.T) {
	err := quick.Check(func(seedVal int64, base []byte) bool {
		rng := rand.New(rand.NewSource(seedVal))
		m := newMutator(rng, 64, nil)
		if len(base) > 48 {
			base = base[:48]
		}
		other := []byte{1, 2, 3, 4}
		for k := 0; k < 16; k++ {
			out := m.havoc(base, other)
			if len(out) > 64 {
				return false // max length violated
			}
		}
		for k := 0; k < 16; k++ {
			out := m.deterministic(base, k)
			if len(base) > 0 && len(out) != len(base) {
				return false // deterministic stages preserve length
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestMutatorDeterministicWalksBits(t *testing.T) {
	m := newMutator(rand.New(rand.NewSource(1)), 64, nil)
	seed := []byte{0x00, 0x00}
	// Stage k=0 flips bit 0; k=2 flips bit 1.
	if out := m.deterministic(seed, 0); out[0] != 0x01 {
		t.Errorf("k=0 -> % x, want bit 0 flipped", out)
	}
	if out := m.deterministic(seed, 2); out[0] != 0x02 {
		t.Errorf("k=2 -> % x, want bit 1 flipped", out)
	}
	// Odd stages write interesting values.
	if out := m.deterministic(seed, 1); out[0] == 0 && out[1] == 0 {
		t.Errorf("k=1 -> % x, want an interesting byte", out)
	}
}

func TestBlockIDStability(t *testing.T) {
	a := blockID("fn", 1)
	if a != blockID("fn", 1) {
		t.Error("blockID not deterministic")
	}
	if a == blockID("fn", 2) || a == blockID("other", 1) {
		t.Error("blockID collisions on trivially distinct blocks")
	}
	if a&1 == 0 {
		t.Error("blockID must be odd (non-zero prev marker)")
	}
}
