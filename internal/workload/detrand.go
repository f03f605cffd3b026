// Deterministic seekable byte streams for the scenario generators.
//
// The backup scenario's xorshift extents (workload.go) predate this file and
// are pinned by golden transcripts; the primary and workspace scenarios use
// the ChaCha20 keystream below instead. A keystream has two properties the
// scenarios need that ad-hoc PRNG chains lack:
//
//   - Seekable: byte k is byte k%64 of block k/64, so a reader can generate
//     any extent of a logical object without producing the prefix. Duplicate
//     regions regenerate bit-identically from (seed, offset) alone.
//   - Forkable: streams are keyed by SHA-256(label ‖ seed), so every file,
//     volume, and tenant derives an independent stream from one root seed.
//     Adding a stream never perturbs the bytes of an existing one.
//
// The construction follows kubo's testutils deterministic randomness (seed
// hashed to a ChaCha20 key, zero nonce); the cipher core is implemented here
// because the repo carries no external dependencies. This is load generation,
// not cryptography: 20 rounds of ChaCha are simply a cheap, well-distributed,
// position-addressable hash.
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/bits"
)

// DetRand is one deterministic byte stream: an unbounded, seekable sequence
// fully determined by the (seed, label) pair given to NewDetRand. The zero
// nonce/stream position convention means equal keys yield equal bytes at
// equal offsets, on any platform and under any GOMAXPROCS.
//
// A DetRand caches one 64-byte block and is not safe for concurrent use;
// construction is cheap (one SHA-256), so give each reader its own.
type DetRand struct {
	key  [8]uint32
	idx  uint64 // block number held in buf, valid when have
	have bool
	buf  [64]byte
}

// NewDetRand derives an independent stream from a root seed and a label.
// Distinct labels (or seeds) give computationally unrelated streams.
func NewDetRand(seed int64, label string) *DetRand {
	h := sha256.New()
	io.WriteString(h, label)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	var sum = h.Sum(nil)
	d := &DetRand{}
	for i := range d.key {
		d.key[i] = binary.LittleEndian.Uint32(sum[i*4:])
	}
	return d
}

// DeriveSeed folds (seed, label, n) into a new 64-bit seed. The scenario
// generators use it to fork per-stream, per-file, and per-round seeds from
// one root so that each object's bytes are independent of how many siblings
// exist — the fan-out fix: stream i's content depends only on (root, i).
func DeriveSeed(seed int64, label string, n int64) int64 {
	h := sha256.New()
	io.WriteString(h, label)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	h.Write(b[:])
	sum := h.Sum(nil)
	return int64(binary.LittleEndian.Uint64(sum[:8]))
}

// FillAt writes the stream bytes for absolute offsets [off, off+len(p)).
func (d *DetRand) FillAt(p []byte, off int64) {
	for len(p) > 0 {
		blk := uint64(off) / 64
		k := int(uint64(off) % 64)
		if !d.have || d.idx != blk {
			chachaBlock(&d.key, blk, &d.buf)
			d.idx, d.have = blk, true
		}
		n := copy(p, d.buf[k:])
		p = p[n:]
		off += int64(n)
	}
}

// quarterRound is the ChaCha quarter-round on four state words.
func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d = bits.RotateLeft32(d^a, 16)
	c += d
	b = bits.RotateLeft32(b^c, 12)
	a += b
	d = bits.RotateLeft32(d^a, 8)
	c += d
	b = bits.RotateLeft32(b^c, 7)
	return a, b, c, d
}

// chachaBlock produces keystream block counter into out: the original
// ChaCha20 block function with a 64-bit counter and zero nonce. The state
// lives in sixteen locals rather than an array so the rounds stay in
// registers.
func chachaBlock(key *[8]uint32, counter uint64, out *[64]byte) {
	const c0, c1, c2, c3 = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574
	n0, n1 := uint32(counter), uint32(counter>>32)
	x0, x1, x2, x3 := uint32(c0), uint32(c1), uint32(c2), uint32(c3)
	x4, x5, x6, x7 := key[0], key[1], key[2], key[3]
	x8, x9, x10, x11 := key[4], key[5], key[6], key[7]
	x12, x13, x14, x15 := n0, n1, uint32(0), uint32(0) // zero nonce
	for i := 0; i < 10; i++ {
		// Column rounds.
		x0, x4, x8, x12 = quarterRound(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarterRound(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarterRound(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarterRound(x3, x7, x11, x15)
		// Diagonal rounds.
		x0, x5, x10, x15 = quarterRound(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarterRound(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarterRound(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarterRound(x3, x4, x9, x14)
	}
	le := binary.LittleEndian
	le.PutUint32(out[0:], x0+c0)
	le.PutUint32(out[4:], x1+c1)
	le.PutUint32(out[8:], x2+c2)
	le.PutUint32(out[12:], x3+c3)
	le.PutUint32(out[16:], x4+key[0])
	le.PutUint32(out[20:], x5+key[1])
	le.PutUint32(out[24:], x6+key[2])
	le.PutUint32(out[28:], x7+key[3])
	le.PutUint32(out[32:], x8+key[4])
	le.PutUint32(out[36:], x9+key[5])
	le.PutUint32(out[40:], x10+key[6])
	le.PutUint32(out[44:], x11+key[7])
	le.PutUint32(out[48:], x12+n0)
	le.PutUint32(out[52:], x13+n1)
	le.PutUint32(out[56:], x14)
	le.PutUint32(out[60:], x15)
}

// detFile is one logical file of a scenario stream: a stable header identity
// plus a deterministic body keyed by (seed, version). Bumping version models
// an edit — the whole body re-keys, which is the right granularity for the
// workspace scenario's package installs and source saves.
type detFile struct {
	id      uint64
	seed    int64
	version int64
	size    int64
}

// detStream reads a sequence of detFiles in the backup-stream framing the
// chunker already understands: a 64-byte header per file, then the body.
type detStream struct {
	files []detFile
	fi    int
	off   int64 // offset within the current unit (header or body)
	hdr   [64]byte
	inHdr bool
	init  bool
	det   *DetRand
}

// newDetStream builds the reader. It copies files so callers may reuse and
// mutate their slice after streaming begins.
func newDetStream(files []detFile) *detStream {
	return &detStream{files: append([]detFile(nil), files...)}
}

// detStreamSize is the exact byte length of the framed stream.
func detStreamSize(files []detFile) int64 {
	n := int64(len(files)) * 64
	for _, f := range files {
		n += f.size
	}
	return n
}

func (r *detStream) Read(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		if r.fi >= len(r.files) {
			if total > 0 {
				return total, nil
			}
			return 0, io.EOF
		}
		f := &r.files[r.fi]
		if !r.init {
			r.hdr = headerFor(f.id, f.size)
			r.inHdr, r.off, r.init = true, 0, true
			r.det = NewDetRand(DeriveSeed(f.seed, "detfile", f.version), "body")
		}
		if r.inHdr {
			n := copy(p[total:], r.hdr[r.off:])
			r.off += int64(n)
			total += n
			if r.off == int64(len(r.hdr)) {
				r.inHdr, r.off = false, 0
				if f.size == 0 {
					r.fi++
					r.init = false
				}
			}
			continue
		}
		n := int64(len(p) - total)
		if remain := f.size - r.off; n > remain {
			n = remain
		}
		r.det.FillAt(p[total:total+int(n)], r.off)
		r.off += n
		total += int(n)
		if r.off == f.size {
			r.fi++
			r.init = false
		}
	}
	return total, nil
}
