// Package bloom implements a plain Bloom filter over uint64 keys.
//
// RAIDR (Liu et al., ISCA 2012) — the refresh-reduction baseline the
// paper's DC-REF is compared against — stores its retention-time row
// bins in Bloom filters so the controller can hold millions of row
// classifications in a few kilobytes. The refresh policies in
// internal/refresh use this package the same way.
package bloom

import (
	"fmt"
	"math"
)

// Filter is a Bloom filter over uint64 keys. The zero value is not
// usable; construct with New or NewWithEstimate.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
	count  uint64 // inserted keys (approximate population tracking)
}

// New creates a filter with nbits bits and the given number of hash
// functions.
func New(nbits uint64, hashes int) (*Filter, error) {
	if nbits == 0 {
		return nil, fmt.Errorf("bloom: nbits must be positive")
	}
	if hashes <= 0 || hashes > 16 {
		return nil, fmt.Errorf("bloom: hashes must be in [1,16], got %d", hashes)
	}
	words := (nbits + 63) / 64
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  nbits,
		hashes: hashes,
	}, nil
}

// NewWithEstimate sizes the filter for n expected keys at the target
// false-positive probability p, using the standard optimal formulas.
func NewWithEstimate(n uint64, p float64) (*Filter, error) {
	nbits, hashes, err := EstimateParams(n, p)
	if err != nil {
		return nil, err
	}
	return New(nbits, hashes)
}

// EstimateParams returns the bit count and hash count NewWithEstimate
// would use for n keys at false-positive probability p. Parameters it
// returns without error are always accepted by New, so a caller that
// defers building the filter can validate up front.
func EstimateParams(n uint64, p float64) (nbits uint64, hashes int, err error) {
	if n == 0 {
		return 0, 0, fmt.Errorf("bloom: n must be positive")
	}
	if p <= 0 || p >= 1 {
		return 0, 0, fmt.Errorf("bloom: p must be in (0,1), got %v", p)
	}
	ln2 := math.Ln2
	nbits = uint64(math.Ceil(-float64(n) * math.Log(p) / (ln2 * ln2)))
	hashes = int(math.Round(float64(nbits) / float64(n) * ln2))
	if hashes < 1 {
		hashes = 1
	}
	if hashes > 16 {
		hashes = 16
	}
	return nbits, hashes, nil
}

// mix is a 64-bit finalizer (SplitMix64) used to derive the k hash
// values via double hashing.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// indexes derives the k bit positions for key using Kirsch-Mitzenmacher
// double hashing.
func (f *Filter) index(key uint64, i int) uint64 {
	h1 := mix(key)
	h2 := mix(key ^ 0x9e3779b97f4a7c15)
	return (h1 + uint64(i)*h2) % f.nbits
}

// Add inserts key.
func (f *Filter) Add(key uint64) {
	for i := 0; i < f.hashes; i++ {
		idx := f.index(key, i)
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.count++
}

// Contains reports whether key may have been inserted. False
// positives are possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	for i := 0; i < f.hashes; i++ {
		idx := f.index(key, i)
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls.
func (f *Filter) Count() uint64 { return f.count }

// SizeBytes returns the filter's storage footprint.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// EstimatedFPP returns the expected false-positive probability given
// the number of keys inserted so far.
func (f *Filter) EstimatedFPP() float64 {
	k := float64(f.hashes)
	return math.Pow(1-math.Exp(-k*float64(f.count)/float64(f.nbits)), k)
}
