// Bloom filter over the label-tuple fingerprints of one segment. Every
// segment (segment.go) embeds one so a lookup can skip probing segments
// that provably contain none of the query's tuples: a negative answer is
// exact, a positive one is wrong with probability ~1% at the parameters
// below. Filters are immutable once a segment is written, sized at build
// time from the segment's distinct-tuple count.
//
// The keys are profile.LabelTuple values — already 64-bit Karp-Rabin
// fingerprints (internal/fingerprint) — so the filter does not rehash the
// tuple content; it derives its probe positions from the fingerprint with
// a splitmix64-style finalizer and double hashing:
//
//	h1 = mix(fp), h2 = mix(h1) | 1, bit_i = (h1 + i·h2) mod m
//
// which gives bloomHashes well-spread positions from one 64-bit input.
package store

import (
	"encoding/binary"
	"fmt"
	"io"
)

const (
	// bloomBitsPerKey sizes the filter: ~10 bits per distinct tuple.
	bloomBitsPerKey = 10
	// bloomHashes is the number of probe positions per key (k). With 10
	// bits/key, k=6 sits near the optimum and yields ~1% false positives.
	bloomHashes = 6
)

// bloomFilter is a classic m-bit Bloom filter with k=bloomHashes probes.
type bloomFilter struct {
	bits  []uint64
	nbits uint64 // len(bits) * 64
}

// newBloom sizes an empty filter for n keys.
func newBloom(n int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	nbits := uint64(n) * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	words := (nbits + 63) / 64
	return &bloomFilter{bits: make([]uint64, words), nbits: words * 64}
}

// bloomMix is the splitmix64 finalizer: a cheap bijective scrambler that
// decorrelates the probe positions from the arithmetic structure of the
// Karp-Rabin fingerprints.
func bloomMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bloomHash derives the double-hashing pair of one fingerprint. It does
// not depend on the filter, so a lookup hashes each query tuple once and
// probes every segment's filter with the pair.
func bloomHash(fp uint64) (h1, h2 uint64) {
	h1 = bloomMix(fp)
	return h1, bloomMix(h1) | 1
}

// add inserts one fingerprint.
func (b *bloomFilter) add(fp uint64) {
	h1, h2 := bloomHash(fp)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % b.nbits
		b.bits[bit>>6] |= 1 << (bit & 63)
	}
}

// mayContain reports whether the fingerprint bloomHash hashed to (h1, h2)
// may have been added: false is exact, true is probabilistic.
func (b *bloomFilter) mayContain(h1, h2 uint64) bool {
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % b.nbits
		if b.bits[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// sizeBytes is the marshaled size of the filter's bit array.
func (b *bloomFilter) sizeBytes() int { return len(b.bits) * 8 }

// marshalInto appends the filter to w (numWords varint, then the words
// big endian). The encoding is deterministic, so it is covered by the
// segment's content checksum like every other section.
func (b *bloomFilter) marshalInto(w *countingCRCWriter) {
	putUvarint(w, uint64(len(b.bits)))
	var buf [8]byte
	for _, word := range b.bits {
		binary.BigEndian.PutUint64(buf[:], word)
		w.Write(buf[:])
	}
}

// unmarshalBloom reads a filter written by marshalInto from a section
// of at most maxBytes bytes.
func unmarshalBloom(r *countingCRCReader, maxBytes int64) (*bloomFilter, error) {
	words, err := getUvarint(r, uint64(max(maxBytes, 0))/8)
	if err != nil {
		return nil, err
	}
	if words == 0 {
		return nil, fmt.Errorf("empty filter")
	}
	b := &bloomFilter{bits: make([]uint64, words), nbits: words * 64}
	var buf [8]byte
	for i := range b.bits {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		b.bits[i] = binary.BigEndian.Uint64(buf[:])
	}
	return b, nil
}
