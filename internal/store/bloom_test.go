package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBloomNoFalseNegatives is the filter's hard contract: a key that was
// added is always reported as possibly present. A false negative would
// make a lookup skip a segment that holds real postings — a wrong answer,
// not a performance bug.
func TestBloomNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 2, 17, 256, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		bf := newBloom(n)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
			bf.add(keys[i])
		}
		for _, k := range keys {
			if !bf.mayContain(bloomHash(k)) {
				t.Fatalf("n=%d: false negative for key %016x", n, k)
			}
		}
	}
}

// TestBloomHashedProbeMatchesUnsplit pins the hashed probe to the filter's
// original definition — hash and probe in one function, re-hashing per
// filter — on random keys, members and not: the split may not move a bit
// position, or segments written before it would answer differently.
func TestBloomHashedProbeMatchesUnsplit(t *testing.T) {
	unsplit := func(b *bloomFilter, fp uint64) bool {
		h1 := bloomMix(fp)
		h2 := bloomMix(h1) | 1
		for i := uint64(0); i < bloomHashes; i++ {
			bit := (h1 + i*h2) % b.nbits
			if b.bits[bit>>6]&(1<<(bit&63)) == 0 {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 40, 3000} {
		bf := newBloom(n)
		for i := 0; i < n; i++ {
			bf.add(rng.Uint64() % uint64(4*n))
		}
		for i := 0; i < 20000; i++ {
			k := rng.Uint64() % uint64(4*n)
			if i%2 == 0 {
				k = rng.Uint64()
			}
			if got, want := bf.mayContain(bloomHash(k)), unsplit(bf, k); got != want {
				t.Fatalf("n=%d key %016x: hashed probe says %v, the unsplit filter %v", n, k, got, want)
			}
		}
	}
}

// TestBloomFalsePositiveRate checks the sizing: at 10 bits/key with 6
// hashes the theoretical false-positive rate is under 1%; allow 3% to keep
// the property test robust across seeds.
func TestBloomFalsePositiveRate(t *testing.T) {
	const n, probes = 2000, 20000
	rng := rand.New(rand.NewSource(7))
	bf := newBloom(n)
	member := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		member[k] = true
		bf.add(k)
	}
	fp := 0
	for i := 0; i < probes; i++ {
		k := rng.Uint64()
		if member[k] {
			continue
		}
		if bf.mayContain(bloomHash(k)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false-positive rate %.4f exceeds 3%% (%d/%d)", rate, fp, probes)
	}
}

// TestBloomEmptyAndClamp: an empty filter rejects everything, and the
// sizing clamps (n<1, tiny n) never produce a filter below one word.
func TestBloomEmptyAndClamp(t *testing.T) {
	for _, n := range []int{-5, 0, 1} {
		bf := newBloom(n)
		if len(bf.bits) < 1 {
			t.Fatalf("newBloom(%d): %d words, want >= 1", n, len(bf.bits))
		}
		if bf.mayContain(bloomHash(12345)) {
			t.Fatalf("newBloom(%d): empty filter claims membership", n)
		}
	}
}

// TestBloomMarshalRoundTrip: the serialized filter reproduces exactly the
// same bit array — and therefore the same membership answers — after
// unmarshal.
func TestBloomMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bf := newBloom(300)
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = rng.Uint64()
		bf.add(keys[i])
	}
	var buf bytes.Buffer
	cw := newCRCWriter(&buf)
	bf.marshalInto(cw)
	if err := cw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalBloom(newCRCReader(bytes.NewReader(buf.Bytes()), 4096), int64(buf.Len())-8); err == nil {
		t.Fatal("accepted a filter larger than its section")
	}
	got, err := unmarshalBloom(newCRCReader(bytes.NewReader(buf.Bytes()), 4096), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.bits) != len(bf.bits) {
		t.Fatalf("word count %d != %d", len(got.bits), len(bf.bits))
	}
	for i := range bf.bits {
		if got.bits[i] != bf.bits[i] {
			t.Fatalf("word %d differs after round trip", i)
		}
	}
	for _, k := range keys {
		if !got.mayContain(bloomHash(k)) {
			t.Fatalf("false negative after round trip: %016x", k)
		}
	}
}
