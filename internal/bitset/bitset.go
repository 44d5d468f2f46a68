// Package bitset implements the compact freezing-status bitmap
// (M_is_frozen in the paper's Alg. 1). One bit per model scalar keeps the
// mask memory overhead at 1/32 of the model itself.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// BitSet is a fixed-length bitmap.
type BitSet struct {
	n     int
	words []uint64
}

// New returns an all-clear bitmap of n bits.
func New(n int) *BitSet {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &BitSet{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits.
func (b *BitSet) Len() int { return b.n }

// check panics when i is out of range.
func (b *BitSet) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Set sets bit i.
func (b *BitSet) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (i % wordBits)
}

// Clear clears bit i.
func (b *BitSet) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (i % wordBits)
}

// SetTo sets bit i to v.
func (b *BitSet) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Get reports bit i.
func (b *BitSet) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Ratio returns Count/Len, or 0 for an empty set.
func (b *BitSet) Ratio() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.n)
}

// Reset clears all bits.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns a deep copy.
func (b *BitSet) Clone() *BitSet {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Words exposes the raw backing words (read-only use, e.g. serialization).
func (b *BitSet) Words() []uint64 { return b.words }

// FromWords reconstructs a bitmap of n bits from raw words. Bits beyond n
// in the final word must be zero.
func FromWords(n int, words []uint64) (*BitSet, error) {
	b := New(n)
	if len(words) != len(b.words) {
		return nil, fmt.Errorf("bitset: %d words cannot back %d bits", len(words), n)
	}
	copy(b.words, words)
	if n%wordBits != 0 && len(words) > 0 {
		tail := words[len(words)-1] >> (n % wordBits)
		if tail != 0 {
			return nil, fmt.Errorf("bitset: nonzero bits beyond length %d", n)
		}
	}
	return b, nil
}
