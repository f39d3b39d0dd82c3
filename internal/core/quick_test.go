package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// TestQuickPartitionIndexLaw verifies γ^(−i−1) < p ≤ γ^(−i) for arbitrary
// probabilities and γ values generated by testing/quick.
func TestQuickPartitionIndexLaw(t *testing.T) {
	f := func(pBits, gBits uint32) bool {
		// Map to p ∈ (0, 1] and γ ∈ (1, 17].
		p := (float64(pBits%1000000) + 1) / 1000000
		gamma := 1 + (float64(gBits%1600)+1)/100
		i, ok := PartitionIndex(p, gamma)
		if !ok {
			return false
		}
		lo := math.Pow(gamma, -float64(i+1))
		hi := math.Pow(gamma, -float64(i))
		return lo < p && p <= hi*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionIndexMonotone: larger probabilities never land in
// higher-numbered (smaller-probability) partitions.
func TestQuickPartitionIndexMonotone(t *testing.T) {
	f := func(aBits, bBits uint32) bool {
		a := (float64(aBits%1000000) + 1) / 1000000
		b := (float64(bBits%1000000) + 1) / 1000000
		if a > b {
			a, b = b, a
		}
		ia, _ := PartitionIndex(a, 2)
		ib, _ := PartitionIndex(b, 2)
		return ia >= ib
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickGenProbDistribution: for random seeds and ω ranges, the
// generation probabilities over the whole (tiny) universe form a
// probability distribution, and Prober agrees with GenProb pointwise.
func TestQuickGenProbDistribution(t *testing.T) {
	model := tinyModel(t, 71)
	r := rng.New(72)
	f := func(seedBits uint16, omegaBits uint8) bool {
		seed := dataset.Record{
			uint16(seedBits) % 2,
			uint16(seedBits>>4) % 3,
			uint16(seedBits>>8) % 2,
		}
		lo := 1 + int(omegaBits)%3
		hi := lo + int(omegaBits>>4)%(4-lo)
		syn, err := NewSeedSynthesizer(model, lo, hi)
		if err != nil {
			return false
		}
		sum := 0.0
		for a := uint16(0); a < 2; a++ {
			for b := uint16(0); b < 3; b++ {
				for c := uint16(0); c < 2; c++ {
					y := dataset.Record{a, b, c}
					p := syn.GenProb(y, seed)
					if p < 0 || p > 1 {
						return false
					}
					if syn.Prober(y)(seed) != p {
						return false
					}
					sum += p
				}
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = r
}

// TestQuickDeniabilityMonotoneInK: if (k, γ)-plausible deniability holds,
// then (k−1, γ) holds too; and if it holds at γ, it holds at any larger γ.
func TestQuickDeniabilityMonotone(t *testing.T) {
	model := tinyModel(t, 73)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 120, 74)
	r := rng.New(75)
	for trial := 0; trial < 150; trial++ {
		seed := seeds.Row(r.Intn(seeds.Len()))
		y := syn.Generate(seed, r)
		k := 2 + r.Intn(40)
		gamma := 1.2 + 3*r.Float64()
		if IsPlausiblyDeniable(syn, seeds, seed, y, k, gamma) {
			if !IsPlausiblyDeniable(syn, seeds, seed, y, k-1, gamma) {
				t.Fatalf("PD(k=%d) holds but PD(k=%d) fails", k, k-1)
			}
			if !IsPlausiblyDeniable(syn, seeds, seed, y, k, gamma*1.5) {
				t.Fatalf("PD(γ=%.2f) holds but PD(γ=%.2f) fails", gamma, gamma*1.5)
			}
		}
	}
}

// TestQuickReleasedAlwaysDeniable: fuzzed mechanism parameters never let a
// record through Privacy Test 1 that violates Definition 1.
func TestQuickReleasedAlwaysDeniable(t *testing.T) {
	model := tinyModel(t, 76)
	seeds := tinySeeds(t, model, 200, 77)
	r := rng.New(78)
	for trial := 0; trial < 200; trial++ {
		lo := 1 + r.Intn(3)
		hi := lo + r.Intn(4-lo)
		syn, err := NewSeedSynthesizer(model, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(30)
		gamma := 1.1 + 4*r.Float64()
		seed := seeds.Row(r.Intn(seeds.Len()))
		y := syn.Generate(seed, r)
		res, err := RunTest(syn, seeds, seed, y, TestConfig{K: k, Gamma: gamma}, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pass && !IsPlausiblyDeniable(syn, seeds, seed, y, k, gamma) {
			t.Fatalf("trial %d (k=%d γ=%.2f ω=[%d,%d]): released record violates Definition 1",
				trial, k, gamma, lo, hi)
		}
	}
}

// TestQuickIndexedScanMatchesWalk: for random walks (n, start, coprime
// stride, maxCheck ≤ n, breakAt ≥ 1) over a random record order and a
// random plausible set — a sorted range minus a nested one — both indexed
// scan shapes return exactly the (Checked, PlausibleCount) of the literal
// cyclic walk that asks every visited record for membership.
func TestQuickIndexedScanMatchesWalk(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 12, 13, 64, 97, 100, 360, 997, 1000, 1024}
	buf := make([]uint32, 1024)
	f := func(sizeSel uint8, bits [8]uint32) bool {
		n := sizes[int(sizeSel)%len(sizes)]
		r := rng.New(uint64(bits[0])<<32 | uint64(bits[1]))
		perm := make([]uint32, n)
		for i, v := range r.Perm(n) {
			perm[i] = uint32(v)
		}
		inv := make([]uint32, n)
		for p, rec := range perm {
			inv[rec] = uint32(p)
		}
		// Nested sorted ranges: lo ≤ cutLo ≤ cutHi ≤ hi, the cut often empty.
		cuts := []int{r.Intn(n + 1), r.Intn(n + 1), r.Intn(n + 1), r.Intn(n + 1)}
		slices.Sort(cuts)
		set := sortedSet{uint32(cuts[0]), uint32(cuts[3]), uint32(cuts[1]), uint32(cuts[2])}
		if bits[2]%3 == 0 {
			set.cutLo, set.cutHi = set.lo, set.lo
		}
		start := int(bits[3] % uint32(n))
		stride := 1
		if n > 2 {
			stride = 1 + int(bits[4]%uint32(n-1))
			for gcd(stride, n) != 1 {
				stride = stride%(n-1) + 1
			}
		}
		maxCheck := 1 + int(bits[5]%uint32(n))
		breakAt := 1 + int(bits[6]%uint32(n+2))
		if bits[7]%5 == 0 {
			breakAt = math.MaxInt
		}

		member := make([]bool, n)
		for p := set.lo; p < set.hi; p++ {
			if p < set.cutLo || p >= set.cutHi {
				member[perm[p]] = true
			}
		}
		wantChecked, wantCount := 0, 0
		for idx := start; wantChecked < maxCheck; idx = (idx + stride) % n {
			wantChecked++
			if member[idx] {
				wantCount++
				if wantCount >= breakAt {
					break
				}
			}
		}

		checked, count := scanEnumerate(perm, set, maxCheck, breakAt, start, stride, buf)
		if checked != wantChecked || count != wantCount {
			t.Logf("enumerate n=%d set=%+v start=%d stride=%d maxCheck=%d breakAt=%d: (%d, %d), want (%d, %d)",
				n, set, start, stride, maxCheck, breakAt, checked, count, wantChecked, wantCount)
			return false
		}
		checked, count = scanWalk(inv, set, maxCheck, breakAt, start, stride)
		if checked != wantChecked || count != wantCount {
			t.Logf("walk n=%d set=%+v start=%d stride=%d maxCheck=%d breakAt=%d: (%d, %d), want (%d, %d)",
				n, set, start, stride, maxCheck, breakAt, checked, count, wantChecked, wantCount)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickModInverse: modInverse(s, n)·s ≡ 1 (mod n) for every s coprime
// with n, the identity the enumerate shape maps records to walk steps by.
func TestQuickModInverse(t *testing.T) {
	f := func(nBits, sBits uint32) bool {
		n := 2 + int(nBits%1_000_000)
		s := 1 + int(sBits%uint32(n-1))
		if gcd(s, n) != 1 {
			return true
		}
		return uint64(modInverse(s, n))*uint64(s)%uint64(n) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if got := modInverse(1, 1); got != 0 {
		t.Errorf("modInverse(1, 1) = %d, want 0", got)
	}
}

// TestQuickKthSmallest: the enumerate shape's selection agrees with a full
// sort on random, sorted, reversed and organ-pipe inputs.
func TestQuickKthSmallest(t *testing.T) {
	f := func(vals []uint32, kBits uint16, pattern uint8) bool {
		if len(vals) == 0 {
			return true
		}
		a := slices.Clone(vals)
		switch pattern % 4 {
		case 1:
			slices.Sort(a)
		case 2:
			slices.Sort(a)
			slices.Reverse(a)
		case 3:
			slices.Sort(a)
			slices.Reverse(a[len(a)/2:])
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		k := int(kBits) % len(a)
		return kthSmallest(a, k) == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
