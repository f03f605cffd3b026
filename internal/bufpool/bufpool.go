// Package bufpool recycles the ingest path's large byte buffers — chunker
// read windows and the serial pipeline's segment arena — process-wide.
//
// Every backup, IngestStream lane and BackupStreams stream draws from the
// same pools, so the buffers live at any moment follow the work in flight,
// not the number of backups run since the last GC. A per-call pool would
// not: each call starts empty, and whatever it retires stays reachable
// through sync.Pool's victim cache until a later collection.
//
// Buffers are pooled by exact capacity. Callers ask for sizes fixed by
// their chunking and segmenting parameters, so a process sees only a
// handful of distinct sizes and a recycled buffer always fits exactly.
package bufpool

import "sync"

var pools sync.Map // capacity (int) → *sync.Pool of *[]byte

// Get returns a buffer of length and capacity n. Its contents are
// unspecified: a recycled buffer still holds its previous user's bytes.
func Get(n int) []byte {
	p, ok := pools.Load(n)
	if !ok {
		p, _ = pools.LoadOrStore(n, new(sync.Pool))
	}
	if b, _ := p.(*sync.Pool).Get().(*[]byte); b != nil {
		return (*b)[:n]
	}
	return make([]byte, n)
}

// Put hands b back for reuse. The caller must hold no other reference to
// b's backing array. Buffers whose capacity no Get asked for (an arena
// that append grew past its size, say) are left to the garbage collector.
func Put(b []byte) {
	if p, ok := pools.Load(cap(b)); ok {
		b = b[:0]
		p.(*sync.Pool).Put(&b)
	}
}
