package fuzz

import (
	"encoding/binary"
	"math/rand"
)

// interesting holds the classic AFL interesting byte/word values.
var interesting = []int64{-128, -1, 0, 1, 16, 32, 64, 100, 127, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 65535}

// mutator produces candidate inputs. Deterministic stages walk the seed
// bytes systematically; havoc stacks random edits. A non-empty frozen mask
// confines every edit to the unfrozen (reformable) byte positions.
//
// Every mutant is written into one mutator-owned buffer, so a mutant is
// valid only until the next call; callers copy the ones they keep.
type mutator struct {
	rng    *rand.Rand
	maxLen int
	frozen []Span
	// pos caches allowed(posLen); posLen is -1 until the first call.
	pos    []int
	posLen int
	buf    []byte
}

func newMutator(rng *rand.Rand, maxLen int, frozen []Span) *mutator {
	return &mutator{rng: rng, maxLen: maxLen, frozen: frozen, posLen: -1}
}

// isFrozen reports whether byte position p lies inside a frozen span.
func (m *mutator) isFrozen(p int) bool {
	for _, s := range m.frozen {
		if p >= s.Start && p < s.Start+s.Len {
			return true
		}
	}
	return false
}

// allowed lists the mutable byte positions of an n-byte input: every
// position when no mask is set, the unfrozen ones otherwise. The list is
// computed once per input length and shared; callers must not modify it.
func (m *mutator) allowed(n int) []int {
	if n != m.posLen {
		m.pos = m.pos[:0]
		for p := 0; p < n; p++ {
			if !m.isFrozen(p) {
				m.pos = append(m.pos, p)
			}
		}
		m.posLen = n
	}
	return m.pos
}

// restoreFrozen copies the frozen spans of the seed back into the mutant.
// Masked havoc only applies length-preserving edits, so positions line up.
func (m *mutator) restoreFrozen(out, seed []byte) {
	for _, s := range m.frozen {
		for p := s.Start; p < s.Start+s.Len && p < len(out) && p < len(seed); p++ {
			out[p] = seed[p]
		}
	}
}

// deterministic applies the k-th deterministic mutation of the seed:
// even k walk single-bit flips, odd k walk byte replacements with
// interesting values. Both walks range over the allowed positions only,
// which is the identity mapping when no mask is set.
func (m *mutator) deterministic(seed []byte, k int) []byte {
	out := append(m.buf[:0], seed...)
	m.buf = out
	if len(out) == 0 {
		m.buf = append(out, byte(k))
		return m.buf
	}
	pos := m.allowed(len(out))
	if len(pos) == 0 {
		return out
	}
	switch k % 2 {
	case 0:
		bit := (k / 2) % (len(pos) * 8)
		out[pos[bit/8]] ^= 1 << (bit % 8)
	default:
		p := (k / 2) % len(pos)
		out[pos[p]] = byte(interesting[(k/2/len(pos))%len(interesting)])
	}
	return out
}

// havocCases enumerates the edit kinds available to one havoc step; with a
// frozen mask the length-changing edits (delete/insert/duplicate) are
// excluded so frozen spans keep their offsets.
var havocMaskCases = []int{0, 1, 2, 3, 4, 8}

// havoc applies 1..32 stacked random edits; other donates splice content.
func (m *mutator) havoc(seed, other []byte) []byte {
	out := append(m.buf[:0], seed...)
	edits := 1 + m.rng.Intn(32)
	for e := 0; e < edits; e++ {
		if len(out) == 0 {
			out = append(out, byte(m.rng.Intn(256)))
			continue
		}
		c := m.rng.Intn(9)
		if len(m.frozen) > 0 {
			c = havocMaskCases[m.rng.Intn(len(havocMaskCases))]
		}
		switch c {
		case 0: // bit flip
			bit := m.rng.Intn(len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
		case 1: // random byte
			out[m.rng.Intn(len(out))] = byte(m.rng.Intn(256))
		case 2: // interesting byte
			out[m.rng.Intn(len(out))] = byte(interesting[m.rng.Intn(len(interesting))])
		case 3: // arith on byte
			p := m.rng.Intn(len(out))
			out[p] += byte(m.rng.Intn(71)) - 35
		case 4: // arith on u16
			if len(out) >= 2 {
				p := m.rng.Intn(len(out) - 1)
				v := binary.LittleEndian.Uint16(out[p:])
				v += uint16(m.rng.Intn(71)) - 35
				binary.LittleEndian.PutUint16(out[p:], v)
			}
		case 5: // delete span
			if len(out) > 1 {
				p := m.rng.Intn(len(out))
				n := 1 + m.rng.Intn(len(out)-p)
				out = append(out[:p], out[p+n:]...)
			}
		case 6: // insert random span
			if len(out) < m.maxLen {
				p := m.rng.Intn(len(out) + 1)
				n := 1 + m.rng.Intn(8)
				out = openGap(out, p, n)
				for i := p; i < p+n; i++ {
					out[i] = byte(m.rng.Intn(256))
				}
			}
		case 7: // duplicate span
			if len(out) < m.maxLen && len(out) > 0 {
				p := m.rng.Intn(len(out))
				n := 1 + m.rng.Intn(min(8, len(out)-p))
				// The gap keeps its old bytes: out[p:p+n] twice.
				out = openGap(out, p, n)
			}
		case 8: // splice from another seed
			if len(other) > 0 {
				p := m.rng.Intn(len(out))
				q := m.rng.Intn(len(other))
				n := min(len(other)-q, len(out)-p)
				if n > 0 {
					n = 1 + m.rng.Intn(n)
					copy(out[p:p+n], other[q:q+n])
				}
			}
		}
		if len(out) > m.maxLen {
			out = out[:m.maxLen]
		}
	}
	if len(m.frozen) > 0 {
		m.restoreFrozen(out, seed)
	}
	m.buf = out
	return out
}

// openGap grows out by n bytes and shifts out[p:] right by n, leaving
// out[p:p+n] as it was.
func openGap(out []byte, p, n int) []byte {
	out = append(out, make([]byte, n)...)
	copy(out[p+n:], out[p:len(out)-n])
	return out
}
