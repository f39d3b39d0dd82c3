package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// The privacy test's plausible-seed scan is the hot path's hot path: for
// every candidate the paper's tool (§5) walks input records in a
// pseudo-random cyclic order — start anywhere, step by a stride coprime
// with n — and counts plausible seeds until the threshold, max_plausible
// or max_check_plausible stops it. This file computes that walk's outcome
// without asking every visited record whether it is plausible.
//
// A record is a plausible seed iff its σ-agreement length with the
// candidate lies in [jLo, jHi] (the ivOK contract of initPartitions). With
// the records sorted σ-lexicographically, the records agreeing with the
// candidate on a σ-prefix of length L form one contiguous sorted range
// R(L), and R(L+1) nests inside R(L). The plausible set P is therefore
// R(jLo) minus R(jHi+1), found by narrowing one σ column at a time: a
// prefix-offset table answers the first few columns in O(1) and binary
// searches over the sorted order the rest. Knowing P, the walk's outcome
// takes one of two exact shapes, chosen from |P| against the expected walk
// length (see chooseShape):
//
//   - enumerate: map each member of P to its position on the walk and read
//     the counters off the positions, never touching the records off P;
//   - walk: take the same cyclic walk, testing membership with one lookup
//     into the record → sorted-position array and two range compares.
//
// Decisions, counters and RNG consumption are bit-identical to the
// per-record path, which remains for synthesizers without a fixed σ and
// for partition memos that are not one interval — pinned by the
// batch-identity, fast-test and property suites.

// ScanTable is an immutable, shareable scan index for one (seed dataset,
// σ order) pair: the records in σ-lexicographic order, its inverse, a
// prefix-offset table for the leading σ columns and the coprime-stride
// mask. Building one costs O(n·m); serving layers cache it per fitted model
// (see sgf.FittedModel) and attach it to each Mechanism via the Scan field
// so per-request runs skip the rebuild. A nil ScanTable is always safe —
// the scan falls back to the per-record path.
type ScanTable struct {
	n int
	// rows and order are the indexed dataset's records and the σ order the
	// index sorts them by; range narrowing reads column values through them.
	rows  []dataset.Record
	order []int
	// perm lists the records in σ-lexicographic order (sorted position →
	// record) and inv is its inverse (record → sorted position). Both are
	// nil when the dataset cannot be indexed (more than 2³²−1 records, or
	// values outside their attribute's domain); the scan then falls back to
	// the per-record evaluator.
	perm, inv []uint32
	// dims are the domain sizes of the first len(dims) σ columns, and
	// prefix[K] the first sorted position whose mixed-radix key over those
	// columns is ≥ K (prefix[Πdims] = n).
	dims   []int
	prefix []uint32
	// mask is a bitset over [0, n): bit s is set iff gcd(s, n) == 1, so the
	// cyclic scan's stride resolution needs one bit test per step instead of
	// a gcd loop.
	mask []uint64
}

// NewScanTable builds the scan index for the dataset under the given
// attribute order (the synthesizer's σ). The table keeps the dataset's
// record slice, which must not change while the table is in use.
func NewScanTable(data *dataset.Dataset, order []int) *ScanTable {
	n := data.Len()
	t := &ScanTable{n: n, rows: data.Rows(), order: slices.Clone(order), mask: coprimeMask(n)}
	if n > 0 && uint64(n) <= math.MaxUint32 {
		t.buildIndex(data.Meta)
	}
	return t
}

// maxChunkCells bounds one sorting pass's key space: each pass of the LSD
// counting sort keys on a run of σ columns whose domain product fits it.
const maxChunkCells = 1 << 16

// buildIndex sorts the records σ-lexicographically with an LSD counting
// sort over runs of σ columns ("chunks") keyed mixed-radix, one pass per
// chunk from the least significant. The most significant chunk is the
// prefix-offset table's column run; its pass's bucket starts are the table.
// Ties keep record order (every pass is stable).
func (t *ScanTable) buildIndex(meta *dataset.Metadata) {
	n, m := t.n, len(t.order)
	dims := make([]int, m)
	for k, a := range t.order {
		dims[k] = max(meta.Attrs[a].Card(), 1)
	}
	// The prefix-offset table covers the longest σ-prefix whose key space
	// fits n cells, so it never costs more than perm.
	c, cells := 0, 1
	for c < m && cells*dims[c] <= n {
		cells *= dims[c]
		c++
	}
	type chunk struct{ from, to, cells int }
	chunks := make([]chunk, 0, 16) // least significant first
	maxCells := 0
	for to := m; to > c; {
		from, cells := to-1, dims[to-1]
		for from > c && cells*dims[from-1] <= maxChunkCells {
			from--
			cells *= dims[from]
		}
		chunks = append(chunks, chunk{from, to, cells})
		maxCells = max(maxCells, cells)
		to = from
	}
	chunks = append(chunks, chunk{0, c, cells})

	// One tight pass copies the σ columns out of the records: rows may be
	// scattered through the heap, and a short loop body keeps more of those
	// loads in flight. The chunk keys are then computed column by column.
	cols := make([]uint16, m*n)
	for i, row := range t.rows {
		for k, a := range t.order {
			cols[k*n+i] = row[a]
		}
	}
	keys := make([]uint32, len(chunks)*n)
	for ci, ch := range chunks {
		chunkKeys := keys[ci*n : (ci+1)*n]
		for k := ch.from; k < ch.to; k++ {
			d := uint32(dims[k])
			for i, v := range cols[k*n : (k+1)*n] {
				if uint32(v) >= d {
					return // out-of-domain value: leave the table unindexed
				}
				chunkKeys[i] = chunkKeys[i]*d + uint32(v)
			}
		}
	}
	buf := make([]uint32, 2*n)
	src, dst := buf[:n:n], buf[n:]
	for i := range src {
		src[i] = uint32(i)
	}
	var counts, starts []uint32
	if len(chunks) > 1 {
		counts = make([]uint32, maxCells+1)
	}
	for ci, ch := range chunks {
		keys := keys[ci*n : (ci+1)*n]
		if ci < len(chunks)-1 {
			starts = counts[:ch.cells+1]
			clear(starts)
		} else {
			starts = make([]uint32, ch.cells+1) // kept as the prefix table
		}
		// starts[key+1] = the first position of key; the scatter advances
		// it to the key's end, which is the first position of key+1.
		for _, key := range keys {
			starts[key+1]++
		}
		total := uint32(0)
		for k := 1; k <= ch.cells; k++ {
			starts[k], total = total, total+starts[k]
		}
		next := starts[1:]
		for _, r := range src {
			key := keys[r]
			dst[next[key]] = r
			next[key]++
		}
		src, dst = dst, src
	}
	for p, r := range src {
		dst[r] = uint32(p)
	}
	t.perm, t.inv, t.dims, t.prefix = src, dst, dims[:c], starts
}

// scanOrdered is implemented by synthesizers whose probers compare seeds
// against a candidate along a fixed attribute order — the precondition for
// the indexed scan.
type scanOrdered interface {
	scanOrder() []int
}

// ScanTableFor builds the scan index for a synthesizer over its seed
// dataset, or returns nil when the synthesizer has no fixed scan order
// (e.g. the constant-prober marginal baseline, which needs none: its scan
// is computed analytically).
func ScanTableFor(syn Synthesizer, seeds *dataset.Dataset) *ScanTable {
	so, ok := syn.(scanOrdered)
	if !ok {
		return nil
	}
	order := so.scanOrder()
	if len(order) != seeds.NumAttrs() {
		return nil
	}
	return NewScanTable(seeds, order)
}

// serves reports whether the table indexes exactly this seed dataset under
// the synthesizer's σ, so a shared table is never applied to a mechanism
// it was not built for.
func (t *ScanTable) serves(syn Synthesizer, seeds *dataset.Dataset) bool {
	so, ok := syn.(scanOrdered)
	if !ok || t.n != seeds.Len() || !slices.Equal(t.order, so.scanOrder()) {
		return false
	}
	rows := seeds.Rows()
	return t.n == 0 || &rows[0] == &t.rows[0]
}

// coprimeMask returns the bitset of s in [0, n) with gcd(s, n) == 1,
// built by clearing multiples of each prime factor of n.
func coprimeMask(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	mask := make([]uint64, (n+63)/64)
	for i := range mask {
		mask[i] = ^uint64(0)
	}
	clearMultiples := func(p int) {
		for s := 0; s < n; s += p {
			mask[s>>6] &^= 1 << (uint(s) & 63)
		}
	}
	rem := n
	for p := 2; p*p <= rem; p++ {
		if rem%p == 0 {
			clearMultiples(p)
			for rem%p == 0 {
				rem /= p
			}
		}
	}
	if rem > 1 {
		clearMultiples(rem)
	}
	return mask
}

// coprime reports whether bit s is set in the mask.
func (t *ScanTable) coprime(s int) bool {
	return t.mask[s>>6]>>(uint(s)&63)&1 == 1
}

// strideFrom resolves the scan stride exactly as the gcd walk does: step
// forward (wrapping past n to 1) until a stride coprime with n is found.
func (t *ScanTable) strideFrom(s, n int) int {
	for !t.coprime(s) {
		s++
		if s >= n {
			s = 1
		}
	}
	return s
}

// sortedSet is a plausible set in sorted positions: [lo, hi) minus the
// nested [cutLo, cutHi), which may be empty.
type sortedSet struct{ lo, hi, cutLo, cutHi uint32 }

func (s sortedSet) size() int { return int(s.hi-s.lo) - int(s.cutHi-s.cutLo) }

// prefixRange returns R(L) for L ≤ len(dims): the records whose key over
// the prefix columns starts with y's first L σ values occupy one run of
// keys, [B·S, (B+1)·S) with B the mixed-radix value of those L values and
// S the product of the remaining prefix domains.
func (t *ScanTable) prefixRange(yv []uint16, L int) (lo, hi uint32) {
	b := 0
	for k := 0; k < L; k++ {
		v := int(yv[k])
		if v >= t.dims[k] {
			return 0, 0
		}
		b = b*t.dims[k] + v
	}
	s := 1
	for _, d := range t.dims[L:] {
		s *= d
	}
	return t.prefix[b*s], t.prefix[(b+1)*s]
}

// rangeOf returns R(L), the sorted range of records agreeing with y on
// σ-positions [0, L). When the caller already knows R(from) for some
// from ≤ L it passes it in [lo, hi), and narrowing resumes from there.
func (t *ScanTable) rangeOf(yv []uint16, L, from int, lo, hi uint32) (uint32, uint32) {
	c := len(t.dims)
	if L <= c {
		return t.prefixRange(yv, L)
	}
	if from < c {
		lo, hi = t.prefixRange(yv, c)
		from = c
	}
	for k := from; k < L && lo < hi; k++ {
		lo, hi = t.narrow(t.order[k], yv[k], lo, hi)
	}
	return lo, hi
}

// narrow shrinks a sorted range whose records agree on every σ column
// before attr — so attr's values ascend across it — to the records whose
// attr value is v, by two binary searches.
func (t *ScanTable) narrow(attr int, v uint16, lo, hi uint32) (uint32, uint32) {
	rows, perm := t.rows, t.perm
	l, h := lo, hi
	for l < h {
		mid := l + (h-l)/2
		if rows[perm[mid]][attr] < v {
			l = mid + 1
		} else {
			h = mid
		}
	}
	lo, h = l, hi
	for l < h {
		mid := l + (h-l)/2
		if rows[perm[mid]][attr] <= v {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return lo, l
}

// scanShape names the way a privacy test's scan was decided; GenStats
// counts candidates per shape.
type scanShape uint8

const (
	// shapeNone: no scan ran (the seed itself could not have generated the
	// candidate).
	shapeNone scanShape = iota
	// shapeConstant: every record is plausible or none is, so the walk's
	// outcome follows in O(1).
	shapeConstant
	// shapeEnumerate: the plausible set's members were mapped to their walk
	// positions.
	shapeEnumerate
	// shapeWalk: the cyclic walk ran with one index lookup per record.
	shapeWalk
	// shapeFallback: the per-record evaluator ran.
	shapeFallback
	numScanShapes
)

// enumerateRatio weighs one enumerated member of P against one walk step:
// enumeration reads P sequentially and does a multiply and a modulo per
// member, a walk step does one random read into inv.
const enumerateRatio = 1

// maxEnumerate caps the plausible sets the enumerate shape takes, and with
// it the walk-step scratch each generation worker carries (genScratch), so
// the shape never allocates.
const maxEnumerate = 4096

// chooseShape picks the cheaper exact shape for a plausible set of the
// given size: enumerate when |P| is within enumerateRatio of the expected
// walk length min(maxCheck, breakAt·n/|P|) and fits maxEnumerate. Both
// shapes give identical results, so the choice moves only the cost.
func chooseShape(size, n, maxCheck, breakAt int) scanShape {
	if size > maxEnumerate {
		return shapeWalk
	}
	walk := float64(maxCheck)
	if size > 0 {
		walk = min(walk, float64(breakAt)*float64(n)/float64(size))
	}
	if float64(size) <= enumerateRatio*walk {
		return shapeEnumerate
	}
	return shapeWalk
}

// scanEnumerate replays the cyclic walk (start, stride over n records, at
// most maxCheck visits, stopping at the breakAt-th plausible record) from
// the plausible set alone. Record i is visited at step
// t = (i − start)·stride⁻¹ mod n, so the walk counts the members with
// t < maxCheck, and when there are at least breakAt of them it stops right
// after the breakAt-th smallest such t. buf is scratch space for |P| steps.
func scanEnumerate(perm []uint32, set sortedSet, maxCheck, breakAt, start, stride int, buf []uint32) (checked, count int) {
	n := len(perm)
	inv := uint64(modInverse(stride, n))
	buf = walkSteps(buf[:0], perm[set.lo:set.cutLo], uint64(start), inv, uint64(n), uint64(maxCheck))
	buf = walkSteps(buf, perm[set.cutHi:set.hi], uint64(start), inv, uint64(n), uint64(maxCheck))
	if len(buf) < breakAt {
		return maxCheck, len(buf)
	}
	return int(kthSmallest(buf, breakAt-1)) + 1, breakAt
}

// walkSteps appends the walk step of each record in recs that falls
// before maxCheck.
func walkSteps(dst, recs []uint32, start, strideInv, n, maxCheck uint64) []uint32 {
	for _, r := range recs {
		d := uint64(r) + n - start
		if d >= n {
			d -= n
		}
		if t := d * strideInv % n; t < maxCheck {
			dst = append(dst, uint32(t))
		}
	}
	return dst
}

// modInverse returns s⁻¹ mod n for s coprime with n (0 when n == 1).
func modInverse(s, n int) int {
	// Extended Euclid on (n, s), tracking only s's coefficient.
	a, b := n, s
	x0, x1 := 0, 1
	for b != 0 {
		q := a / b
		a, b = b, a-q*b
		x0, x1 = x1, x0-q*x1
	}
	x0 %= n
	if x0 < 0 {
		x0 += n
	}
	return x0
}

// kthSmallest returns the k-th smallest (0-based) of a, reordering a. It is
// a quickselect that sorts the remaining span when partitioning stops
// making progress, so adversarial inputs cost O(m log m), not O(m²).
func kthSmallest(a []uint32, k int) uint32 {
	lo, hi := 0, len(a)-1
	for rounds := 2 * bits.Len(uint(len(a))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo : hi+1])
			break
		}
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// scanWalk takes the cyclic walk itself, testing each visited record's
// membership in the plausible set through its sorted position.
func scanWalk(inv []uint32, set sortedSet, maxCheck, breakAt, start, stride int) (checked, count int) {
	n := len(inv)
	width, cutWidth := set.hi-set.lo, set.cutHi-set.cutLo
	idx := start
	for checked < maxCheck {
		checked++
		if p := inv[idx]; p-set.lo < width && p-set.cutLo >= cutWidth {
			count++
			if count >= breakAt {
				break
			}
		}
		idx += stride
		if idx >= n {
			idx -= n
		}
	}
	return checked, count
}

// constantWalk is the walk's outcome when every record matches or none
// does: each visit checks one record, a match increments the count, and the
// loop stops at breakAt matches or maxCheck visits.
func constantWalk(match bool, maxCheck, breakAt int) (checked, count int) {
	if !match {
		return maxCheck, 0
	}
	c := min(breakAt, maxCheck)
	return c, c
}

// testPre is the per-run precomputation of the privacy test: parameters
// validated once and limits resolved once, instead of per candidate.
type testPre struct {
	n, maxCheck, maxPlausible, k int
	logGamma, eps0               float64
	randomized                   bool
}

// newTestPre validates the mechanism's test configuration and resolves the
// scan limits for its seed dataset.
func newTestPre(m *Mechanism) (testPre, error) {
	if err := m.Test.Validate(); err != nil {
		return testPre{}, err
	}
	n := m.Seeds.Len()
	if n == 0 {
		return testPre{}, fmt.Errorf("core: privacy test on empty dataset")
	}
	pre := testPre{
		n:            n,
		maxCheck:     n,
		maxPlausible: math.MaxInt,
		k:            m.Test.K,
		logGamma:     math.Log(m.Test.Gamma),
		eps0:         m.Test.Eps0,
		randomized:   m.Test.Randomized,
	}
	if c := m.Test.MaxCheckPlausible; c > 0 && c < n {
		pre.maxCheck = c
	}
	if p := m.Test.MaxPlausible; p > 0 {
		pre.maxPlausible = p
	}
	return pre, nil
}

// runTestFast is the batched kernel's privacy test: identical RNG
// consumption, decisions and counters as RunTest over the same prober
// state, with the per-record work replaced by range arithmetic over the
// scan index. The seed's partition and threshold are computed as before;
// the per-bucket partition memo is folded into a σ-agreement interval (see
// initPartitions), so the scan needs no floats at all. It also reports the
// scan shape that decided the test:
//
//   - constant: a constant prober, or an interval every record satisfies —
//     the walk is computed in O(1);
//   - enumerate or walk: the indexed scan over the plausible set;
//   - fallback: the per-record evaluator, for a missing index or a
//     non-contiguous partition memo.
//
// steps is the enumerate shape's scratch, with room for maxEnumerate steps.
func runTestFast(ps *proberState, st *ScanTable, pre *testPre, data *dataset.Dataset, seed dataset.Record, r *rng.RNG, steps []uint32) (TestResult, scanShape) {
	res := TestResult{SeedProb: ps.proberEval(seed)}

	part, ok := partitionIndexLog(res.SeedProb, pre.logGamma)
	if !ok {
		res.Threshold = float64(pre.k)
		return res, shapeNone
	}
	res.Partition = part

	res.Threshold = float64(pre.k)
	if pre.randomized {
		res.Threshold += r.Laplace(1 / pre.eps0)
	}

	ps.initPartitions(part, pre.logGamma)

	n, maxCheck := pre.n, pre.maxCheck
	// breakAt is the integer form of the loop's two exit conditions: the
	// count is an int, so count ≥ threshold ⟺ count ≥ ⌈threshold⌉. The
	// threshold is clamped before the ceil so an extreme Laplace draw can
	// not overflow the conversion; a threshold below 1 exits on the first
	// plausible record exactly as the float compare did.
	breakAt := pre.maxPlausible
	if t := res.Threshold; t < float64(breakAt) {
		if t < 1 {
			breakAt = 1
		} else if c := int(math.Ceil(t)); c < breakAt {
			breakAt = c
		}
	}

	// The cyclic-walk draws happen unconditionally, in the exact order of
	// the per-record path; the stride's coprime resolution consumes no RNG,
	// so scan shapes that never walk skip it.
	start := r.Intn(n)
	s0 := 1
	if n > 2 {
		s0 = 1 + r.Intn(n-1)
	}

	shape := shapeFallback
	switch {
	case ps.constP >= 0:
		shape = shapeConstant
		res.Checked, res.PlausibleCount = constantWalk(ps.constMatch, maxCheck, breakAt)
	case st != nil && st.perm != nil && ps.ivOK && ps.jLo == 0 && ps.jHi == ps.hiIdx:
		// Every σ-agreement length is plausible: every record matches.
		shape = shapeConstant
		res.Checked, res.PlausibleCount = constantWalk(true, maxCheck, breakAt)
	case st != nil && st.perm != nil && ps.ivOK:
		// Plausible ⟺ σ-agreement a ≥ jLo and, when the interval stops
		// short of the top bucket, a ≤ jHi: P = R(jLo) \ R(jHi+1).
		var set sortedSet
		set.lo, set.hi = st.rangeOf(ps.yv, ps.jLo, 0, 0, uint32(n))
		set.cutLo, set.cutHi = set.lo, set.lo
		if ps.jHi < ps.hiIdx && set.lo < set.hi {
			set.cutLo, set.cutHi = st.rangeOf(ps.yv, ps.jHi+1, ps.jLo, set.lo, set.hi)
		}
		stride := 1
		if n > 2 {
			stride = st.strideFrom(s0, n)
		}
		shape = chooseShape(set.size(), n, maxCheck, breakAt)
		if shape == shapeEnumerate {
			res.Checked, res.PlausibleCount = scanEnumerate(st.perm, set, maxCheck, breakAt, start, stride, steps)
		} else {
			res.Checked, res.PlausibleCount = scanWalk(st.inv, set, maxCheck, breakAt, start, stride)
		}
	default:
		stride := 1
		if n > 2 {
			if st != nil {
				stride = st.strideFrom(s0, n)
			} else {
				stride = s0
				for gcd(stride, n) != 1 {
					stride++
					if stride >= n {
						stride = 1
					}
				}
			}
		}
		idx := start
		for res.Checked < maxCheck {
			da := data.Row(idx)
			res.Checked++
			if ps.plausibleEval(da) {
				res.PlausibleCount++
				if res.PlausibleCount >= breakAt {
					break
				}
			}
			idx += stride
			if idx >= n {
				idx -= n
			}
		}
	}

	res.Pass = float64(res.PlausibleCount) >= res.Threshold
	return res, shape
}
