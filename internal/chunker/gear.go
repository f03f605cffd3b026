package chunker

import "io"

// gearTable is the 256-entry random table driving the gear rolling hash.
// Entries are fixed (generated once from a splitmix64 sequence, seed 1) so
// chunk boundaries are stable across runs and machines.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	// splitmix64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// warmWindow is the effective window of the gear hash: h = h<<1 + t[b]
// shifts a byte's contribution out after 64 steps, so warming 64 bytes
// before the minimum-size point makes boundaries independent of where Min
// falls (the localized-boundary property the tests pin).
const warmWindow = 64

// Gear is a FastCDC-style content-defined chunker: a gear hash
// (h = h<<1 + table[byte]) with normalized chunking — a stricter boundary
// mask before the target size and a looser one after, which tightens the
// chunk-size distribution around Target without sacrificing shift tolerance.
//
// The production cut-point loop is the branch-reduced form (min-size
// skip-ahead, per-phase sub-slicing for bounds-check elimination, 4-way
// unroll); cutpointRef in gear_ref.go keeps the straight-line reference the
// property tests compare it against byte for byte.
type Gear struct {
	b          *buffered
	p          Params
	maskStrict uint64 // used before Target: ~4x fewer boundaries
	maskLoose  uint64 // used after Target: ~4x more boundaries
}

// NewGear returns a gear chunker over r. Params must validate.
func NewGear(r io.Reader, p Params) (*Gear, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strictBits, looseBits := normalizedBits(p.Target)
	g := &Gear{
		b:          newBuffered(r, 4*p.Max),
		p:          p,
		maskStrict: maskForBits(strictBits),
		maskLoose:  maskForBits(looseBits),
	}
	return g, nil
}

// normalizedBits derives the two FastCDC normalization mask widths from the
// target size: 2 extra bits below target, 2 fewer above.
func normalizedBits(target int) (strict, loose uint) {
	bits := uint(0)
	for s := target; s > 1; s >>= 1 {
		bits++
	}
	strict, loose = bits+2, bits-2
	if loose < 1 {
		loose = 1
	}
	if strict > 63 {
		strict = 63
	}
	return strict, loose
}

// maskForBits builds the top-aligned boundary mask of the given width.
func maskForBits(bits uint) uint64 {
	return (uint64(1)<<bits - 1) << (64 - bits)
}

// Next returns the next chunk or io.EOF.
func (g *Gear) Next() ([]byte, error) {
	avail := g.b.fill(g.p.Max)
	if g.b.err != nil {
		return nil, g.b.err
	}
	if avail == 0 {
		return nil, io.EOF
	}
	if avail <= g.p.Min {
		return g.b.take(avail), nil
	}
	data := g.b.buf[g.b.off : g.b.off+min(avail, g.p.Max)]
	cut := g.cutpoint(data)
	return g.b.take(cut), nil
}

// Release implements Chunker.
func (g *Gear) Release() { g.b.release() }

// cutpoint finds the content-defined boundary in data (len > Min). It is the
// hot loop of the ingest path; boundaries are pinned bit-identical to
// cutpointRef by TestGearCutpointMatchesReference and the golden fixture.
func (g *Gear) cutpoint(data []byte) int {
	n := len(data)
	normal := g.p.Target
	if normal > n {
		normal = n
	}
	// Min-size skip-ahead (FastCDC): no boundary may land before Min, so no
	// byte before Min-warmWindow contributes to any boundary decision — jump
	// straight there and only warm the hash over the trailing window.
	i := g.p.Min
	warm := i - warmWindow
	if warm < 0 {
		warm = 0
	}
	var h uint64
	for _, b := range data[warm:i] {
		h = h<<1 + gearTable[b]
	}
	// Phase 1: below target — strict mask. The sub-slice re-anchors the
	// loop bound for the prover; the 4-way unroll cuts loop-control
	// overhead on the ~Target-Min bytes every chunk walks.
	if cut, ok := scanMask(data[:normal], i, &h, g.maskStrict); ok {
		return cut
	}
	// Phase 2: past target — loose mask.
	if cut, ok := scanMask(data, normal, &h, g.maskLoose); ok {
		return cut
	}
	return n
}

// scanMask rolls the gear hash over d[i:], returning the first position
// (exclusive) where the hash lands on mask, or ok=false at the end of d.
// The hash state threads through *h so the caller can chain phases.
func scanMask(d []byte, i int, h *uint64, mask uint64) (int, bool) {
	x := *h
	t := &gearTable
	// 4-way unroll of the boundary test; the tail loop finishes the
	// remainder. Order of evaluation is byte-at-a-time either way, so the
	// cut point is identical to the straight loop.
	for ; i+4 <= len(d); i += 4 {
		x = x<<1 + t[d[i]]
		if x&mask == 0 {
			*h = x
			return i + 1, true
		}
		x = x<<1 + t[d[i+1]]
		if x&mask == 0 {
			*h = x
			return i + 2, true
		}
		x = x<<1 + t[d[i+2]]
		if x&mask == 0 {
			*h = x
			return i + 3, true
		}
		x = x<<1 + t[d[i+3]]
		if x&mask == 0 {
			*h = x
			return i + 4, true
		}
	}
	for ; i < len(d); i++ {
		x = x<<1 + t[d[i]]
		if x&mask == 0 {
			*h = x
			return i + 1, true
		}
	}
	*h = x
	return len(d), false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
