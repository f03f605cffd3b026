package chunker

import "io"

// Fixed splits the stream into fixed-size chunks. It is the degenerate
// baseline: a single-byte insertion shifts every later boundary, destroying
// deduplication across shifted copies. Used in tests and ablations to
// demonstrate why content-defined chunking matters.
type Fixed struct {
	b    *buffered
	size int
}

// NewFixed returns a fixed-size chunker with the given chunk size.
func NewFixed(r io.Reader, size int) (*Fixed, error) {
	if size <= 0 {
		return nil, errBadParams
	}
	return &Fixed{b: newBuffered(r, 4*size), size: size}, nil
}

// Next returns the next chunk or io.EOF.
func (f *Fixed) Next() ([]byte, error) {
	avail := f.b.fill(f.size)
	if f.b.err != nil {
		return nil, f.b.err
	}
	if avail == 0 {
		return nil, io.EOF
	}
	return f.b.take(min(avail, f.size)), nil
}

// Release implements Chunker.
func (f *Fixed) Release() { f.b.release() }

// Kind selects a chunker implementation by name.
type Kind int

const (
	KindGear Kind = iota // FastCDC-style gear chunking (default)
	KindRabin
	KindFixed
	KindTTTD // two-threshold two-divisor
)

func (k Kind) String() string {
	switch k {
	case KindGear:
		return "gear"
	case KindRabin:
		return "rabin"
	case KindFixed:
		return "fixed"
	case KindTTTD:
		return "tttd"
	}
	return "unknown"
}

// New constructs a chunker of the given kind over r. For KindFixed the
// Target parameter is used as the fixed chunk size.
func New(k Kind, r io.Reader, p Params) (Chunker, error) {
	switch k {
	case KindGear:
		return NewGear(r, p)
	case KindRabin:
		return NewRabin(r, p)
	case KindFixed:
		return NewFixed(r, p.Target)
	case KindTTTD:
		return NewTTTD(r, p)
	}
	return nil, errBadParams
}
