// Package chunker splits byte streams into chunks.
//
// Three chunkers are provided:
//
//   - Gear: content-defined chunking with a gear rolling hash and
//     FastCDC-style normalization (two masks around the target size plus a
//     hard minimum/maximum). This is the default for all experiments; it is
//     fast and shift-tolerant, so an insertion early in a file only disturbs
//     chunk boundaries locally.
//   - Rabin: classic Rabin-fingerprint content-defined chunking, kept as a
//     reference implementation and cross-check.
//   - Fixed: fixed-size chunking, the degenerate baseline (no shift
//     tolerance), used in tests and ablations.
//
// All chunkers implement the Chunker interface and stream: Next returns the
// next chunk until io.EOF.
package chunker

import (
	"errors"
	"io"

	"repro/internal/bufpool"
)

// Default chunking parameters, matching common backup-dedup practice
// (the paper's systems use variable chunks of a few KB).
const (
	DefaultMin    = 2 * 1024  // minimum chunk size
	DefaultTarget = 8 * 1024  // target average chunk size
	DefaultMax    = 64 * 1024 // maximum chunk size
)

// Chunker produces successive chunk byte-slices from a stream. The returned
// slice is only valid until the next call to Next or Release.
type Chunker interface {
	// Next returns the next chunk. It returns io.EOF when the stream is
	// exhausted (with a nil chunk).
	Next() ([]byte, error)
	// Release hands the chunker's read window back to the process-wide
	// buffer pool; later calls to Next return io.EOF. A chunker that is
	// never released just leaves its window to the garbage collector.
	Release()
}

// Params configures a content-defined chunker.
type Params struct {
	Min    int // no boundary before Min bytes
	Target int // average chunk size (must be a power of two for Gear masks)
	Max    int // forced boundary at Max bytes
}

// DefaultParams returns the package defaults.
func DefaultParams() Params {
	return Params{Min: DefaultMin, Target: DefaultTarget, Max: DefaultMax}
}

var errBadParams = errors.New("chunker: require 0 < Min <= Target <= Max and Target a power of two")

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Min <= 0 || p.Target < p.Min || p.Max < p.Target {
		return errBadParams
	}
	if p.Target&(p.Target-1) != 0 {
		return errBadParams
	}
	return nil
}

// buffered is the shared reader machinery: it keeps a sliding window buffer
// over the input so chunk slices can be handed out without copying. The
// window comes from the process-wide bufpool, so back-to-back backups reuse
// one window instead of allocating a fresh one per stream.
type buffered struct {
	r    io.Reader
	buf  []byte
	off  int // start of unconsumed bytes
	n    int // end of valid bytes
	err  error
	done bool
}

func newBuffered(r io.Reader, bufSize int) *buffered {
	if bufSize < 1 {
		bufSize = 1
	}
	return &buffered{r: r, buf: bufpool.Get(bufSize)}
}

// release returns the window to bufpool and leaves the reader exhausted.
func (b *buffered) release() {
	if b.buf != nil {
		bufpool.Put(b.buf)
	}
	*b = buffered{done: true}
}

// fill ensures at least want unconsumed bytes are buffered, or the stream is
// exhausted. It reports the number of unconsumed bytes available.
func (b *buffered) fill(want int) int {
	if b.n-b.off >= want || b.done {
		return b.n - b.off
	}
	// Slide remaining bytes to the front to make room. In the common steady
	// state the window is fully consumed (off == n) and the slide is a pure
	// index reset with no copy.
	if b.off > 0 {
		if b.off == b.n {
			b.off, b.n = 0, 0
		} else {
			copy(b.buf, b.buf[b.off:b.n])
			b.n -= b.off
			b.off = 0
		}
	}
	for b.n < len(b.buf) && b.n < want {
		m, err := b.r.Read(b.buf[b.n:])
		b.n += m
		if err != nil {
			b.done = true
			if err != io.EOF {
				b.err = err
			}
			break
		}
	}
	return b.n - b.off
}

// take consumes k bytes and returns them.
func (b *buffered) take(k int) []byte {
	s := b.buf[b.off : b.off+k]
	b.off += k
	return s
}
