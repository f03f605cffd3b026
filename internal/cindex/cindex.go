// Package cindex implements the full chunk index — the structure whose disk
// residency causes the "disk bottleneck" the paper (after Zhu et al.)
// describes: at scale the fingerprint→location map cannot fit in RAM, so a
// miss in every RAM-side filter costs a random disk read of one index page.
//
// The index is modeled as an on-disk hash table of fixed-size bucket pages
// over a dedicated simulated device, fronted by an LRU page cache:
//
//   - Lookup hashes the fingerprint to a bucket; a cached bucket is free, an
//     uncached one charges one page read (seek + transfer).
//   - LookupBatch groups a whole segment's fingerprints by bucket first, so
//     every chunk that hashes to the same bucket page is served by a single
//     modeled page read instead of one per chunk.
//   - Insert/Update are write-buffered per shard and written back in one
//     sequential batch (one seek + batched transfer) when a shard's buffer
//     reaches FlushBatch, matching the log-plus-merge write path of
//     production dedup indexes. Buffers carry over from one backup to the
//     next; a small backup pays no write-back of its own.
//
// The authoritative fingerprint→location mapping is kept in RAM as
// simulation shadow state; the device traffic exists purely to account time.
//
// Concurrency: the index is lock-striped into shards. Buckets are
// partitioned across shards by bucket number, and each shard owns its slice
// of the page cache, its fingerprint map, and its write-back buffer, so
// concurrent backup streams contend only when they touch the same stripe.
// Stats are atomic. Per-stream simulated time is attributed through Handle
// (a view of the index whose device charges a stream's own clock).
//
// The package also provides Oracle, the exact in-RAM index used to compute
// ground-truth redundancy for the paper's "deduplication efficiency" metric.
// Oracle charges no simulated time: it is measurement apparatus, not a
// component of any engine.
package cindex

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/disk"
	"repro/internal/lru"
	"repro/internal/telemetry"
)

// Live telemetry of the on-disk index model. The page cache hit/miss split
// is the disk-bottleneck signal of paper Fig. 2: misses are random index
// page reads.
var (
	telPageHits = telemetry.NewCounter("cindex_page_cache_hits_total",
		"index lookups served from the RAM page cache")
	telPageReads = telemetry.NewCounter("cindex_page_reads_total",
		"index lookups that paid a random disk page read")
	telInserts = telemetry.NewCounter("cindex_inserts_total",
		"index insertions (new or repointed fingerprints)")
	telFlushes = telemetry.NewCounter("cindex_flushes_total",
		"batched sequential write-backs of buffered index inserts")
)

// entrySize is the on-disk footprint of one index entry:
// fingerprint (32) + container (4) + segment (8) + offset (8) + size (4).
const entrySize = 56

// maxAutoShards caps automatic lock striping; contention past 16 stripes is
// negligible for the stream counts the scheduler supports.
const maxAutoShards = 16

// Config sizes the on-disk index model.
type Config struct {
	PageSize   int64 // bytes per bucket page (default 8 KiB)
	NumBuckets int   // hash buckets; sized for the expected chunk population
	CachePages int   // RAM page-cache capacity, in pages (split across shards)
	FlushBatch int   // inserts buffered per shard before a batched write-back
	Shards     int   // lock stripes; 0 = auto (min(16, CachePages, NumBuckets))
}

// DefaultConfig sizes the index for an expected chunk population at the
// default 8 KiB page size. The page cache deliberately covers only a small
// fraction of the buckets — the whole point of the model is that most
// lookups go to disk.
func DefaultConfig(expectedChunks int) Config {
	return ConfigForPage(8192, expectedChunks)
}

// ConfigForPage sizes the index for an expected chunk population at an
// explicit page size, deriving entries-per-page from that page size (not
// from any hard-coded default).
func ConfigForPage(pageSize int64, expectedChunks int) Config {
	if pageSize < entrySize {
		pageSize = entrySize
	}
	if expectedChunks < 1 {
		expectedChunks = 1
	}
	perPage := int(pageSize / entrySize)
	buckets := expectedChunks/perPage + 1
	cache := buckets / 50 // 2% of pages cached
	if cache < 4 {
		cache = 4
	}
	return Config{PageSize: pageSize, NumBuckets: buckets, CachePages: cache, FlushBatch: 4096}
}

func (c Config) validate() error {
	if c.PageSize <= 0 || c.NumBuckets <= 0 || c.CachePages <= 0 || c.FlushBatch <= 0 || c.Shards < 0 {
		return fmt.Errorf("cindex: invalid config %+v", c)
	}
	return nil
}

// numShards resolves the configured shard count: explicit if set, otherwise
// auto-sized so every shard keeps at least one cache page and one bucket.
func (c Config) numShards() int {
	n := c.Shards
	if n == 0 {
		n = maxAutoShards
		if c.CachePages < n {
			n = c.CachePages
		}
		if c.NumBuckets < n {
			n = c.NumBuckets
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Stats counts index activity.
type Stats struct {
	Lookups   int64 // charged lookups
	PageHits  int64 // lookups served from the page cache
	PageReads int64 // lookups that paid a disk page read
	Inserts   int64
	Flushes   int64 // batched write-backs
	NotFound  int64 // charged lookups that found nothing (bloom false positives)
}

// shard is one lock stripe: a partition of the bucket space with its own
// page-cache slice, fingerprint map, and write-back buffer. Bucket b belongs
// to shard b % nshards.
type shard struct {
	mu      sync.Mutex
	cache   *lru.Cache[int, struct{}] // cached bucket IDs of this stripe
	m       map[chunk.Fingerprint]chunk.Location
	pending int // buffered inserts awaiting write-back
}

// Index is the modeled on-disk chunk index. All methods are safe for
// concurrent use; per-stream time attribution goes through Handle.
type Index struct {
	cfg     Config
	dev     *disk.Device
	nshards int
	shards  []shard
	// base is the device offset of bucket 0's page; pages are laid out once
	// at construction (the index region pre-exists on disk) in one global
	// region, so the modeled seek geometry is identical however many lock
	// stripes partition the buckets.
	base int64

	lookups   atomic.Int64
	pageHits  atomic.Int64
	pageReads atomic.Int64
	inserts   atomic.Int64
	flushes   atomic.Int64
	notFound  atomic.Int64
}

// New builds an index over its own device region. dev must be dedicated to
// the index.
func New(dev *disk.Device, cfg Config) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.numShards()
	ix := &Index{
		cfg:     cfg,
		dev:     dev,
		nshards: n,
		shards:  make([]shard, n),
	}
	perShardCache := cfg.CachePages / n
	if perShardCache < 1 {
		perShardCache = 1
	}
	for i := range ix.shards {
		ix.shards[i].cache = lru.New[int, struct{}](perShardCache)
		ix.shards[i].m = make(map[chunk.Fingerprint]chunk.Location, 1024/n)
	}
	// Lay out the bucket region on the device. This charges a one-time
	// sequential write that happens at construction, before any experiment
	// measurement window opens (all metrics are clock deltas per backup), so
	// it never appears in a reported number.
	ix.base = dev.AppendHole(int64(cfg.NumBuckets) * cfg.PageSize)
	return ix, nil
}

// NumShards returns the resolved lock-stripe count.
func (ix *Index) NumShards() int { return ix.nshards }

func (ix *Index) bucket(fp chunk.Fingerprint) int {
	return int(fp.Uint64() % uint64(ix.cfg.NumBuckets))
}

func (ix *Index) shardOf(b int) *shard { return &ix.shards[b%ix.nshards] }

// Bucket returns fp's bucket number. Callers use it to group fingerprints
// that share an index page before a LookupBatch.
func (ix *Index) Bucket(fp chunk.Fingerprint) int { return ix.bucket(fp) }

// Bucket returns fp's bucket number (see Index.Bucket).
func (h Handle) Bucket(fp chunk.Fingerprint) int { return h.ix.bucket(fp) }

// pageOff returns the device offset of bucket b's page.
func (ix *Index) pageOff(b int) int64 { return ix.base + int64(b)*ix.cfg.PageSize }

// Handle is a view of the index that charges simulated time to a specific
// stream's clock. All handles share the index state (shards, caches,
// buffers); only the clock receiving the page-read and flush costs differs.
type Handle struct {
	ix  *Index
	dev *disk.Device
}

// Handle returns a view charging clk. A nil clk charges the index's own
// device clock (equivalent to calling the Index methods directly).
func (ix *Index) Handle(clk *disk.Clock) Handle {
	return Handle{ix: ix, dev: ix.dev.View(clk)}
}

// Lookup searches the index for fp, charging a page read unless the bucket
// page is cached. The boolean reports whether the fingerprint is indexed.
func (ix *Index) Lookup(fp chunk.Fingerprint) (chunk.Location, bool) {
	return ix.lookup(ix.dev, fp)
}

// Lookup is Index.Lookup charged to the handle's clock.
func (h Handle) Lookup(fp chunk.Fingerprint) (chunk.Location, bool) {
	return h.ix.lookup(h.dev, fp)
}

func (ix *Index) lookup(dev *disk.Device, fp chunk.Fingerprint) (chunk.Location, bool) {
	ix.lookups.Add(1)
	b := ix.bucket(fp)
	sh := ix.shardOf(b)
	// The stripe lock covers only the RAM state (cache recency, map); the
	// modeled page read is charged after unlock, so a stream paying a disk
	// read never holds up other streams' cache hits on the same stripe.
	sh.mu.Lock()
	_, hit := sh.cache.Get(b)
	if !hit {
		sh.cache.Put(b, struct{}{})
	}
	loc, ok := sh.m[fp]
	sh.mu.Unlock()
	if hit {
		ix.pageHits.Add(1)
		telPageHits.Inc()
	} else {
		ix.pageReads.Add(1)
		telPageReads.Inc()
		dev.AccountRead(ix.pageOff(b), ix.cfg.PageSize)
	}
	if !ok {
		ix.notFound.Add(1)
	}
	return loc, ok
}

// Result is one LookupBatch outcome, positionally matching the input slice.
type Result struct {
	Loc   chunk.Location
	Found bool
}

// LookupBatch resolves a batch of fingerprints, grouping them by bucket
// first: every distinct uncached bucket page is read exactly once, however
// many fingerprints of the batch hash to it. Buckets are visited in order of
// first appearance, so the charge sequence is deterministic for a given
// input. Results are positional.
func (ix *Index) LookupBatch(fps []chunk.Fingerprint) []Result {
	return ix.lookupBatch(ix.dev, fps)
}

// LookupBatch is Index.LookupBatch charged to the handle's clock.
func (h Handle) LookupBatch(fps []chunk.Fingerprint) []Result {
	return h.ix.lookupBatch(h.dev, fps)
}

func (ix *Index) lookupBatch(dev *disk.Device, fps []chunk.Fingerprint) []Result {
	res := make([]Result, len(fps))
	if len(fps) == 0 {
		return res
	}
	ix.lookups.Add(int64(len(fps)))
	// Group positions by bucket, preserving first-appearance order so the
	// modeled seek sequence (and thus the charged time) is deterministic.
	order := make([]int, 0, len(fps))
	groups := make(map[int][]int, len(fps))
	for i, fp := range fps {
		b := ix.bucket(fp)
		if _, seen := groups[b]; !seen {
			order = append(order, b)
		}
		groups[b] = append(groups[b], i)
	}
	for _, b := range order {
		idxs := groups[b]
		sh := ix.shardOf(b)
		sh.mu.Lock()
		_, hit := sh.cache.Get(b)
		if !hit {
			sh.cache.Put(b, struct{}{})
		}
		for _, i := range idxs {
			loc, ok := sh.m[fps[i]]
			res[i] = Result{Loc: loc, Found: ok}
			if !ok {
				ix.notFound.Add(1)
			}
		}
		sh.mu.Unlock()
		if hit {
			ix.pageHits.Add(int64(len(idxs)))
			telPageHits.Add(int64(len(idxs)))
		} else {
			// One modeled page read, charged outside the stripe lock, serves
			// every fingerprint of this bucket.
			ix.pageReads.Add(1)
			telPageReads.Inc()
			dev.AccountRead(ix.pageOff(b), ix.cfg.PageSize)
			if extra := int64(len(idxs) - 1); extra > 0 {
				ix.pageHits.Add(extra)
				telPageHits.Add(extra)
			}
		}
	}
	return res
}

// Peek returns the mapping without charging time or touching the cache.
// For oracles, tests, and simulation bookkeeping only.
func (ix *Index) Peek(fp chunk.Fingerprint) (chunk.Location, bool) {
	sh := ix.shardOf(ix.bucket(fp))
	sh.mu.Lock()
	loc, ok := sh.m[fp]
	sh.mu.Unlock()
	return loc, ok
}

// Insert adds a new fingerprint mapping. Writes are buffered per shard and
// flushed as sequential batches.
func (ix *Index) Insert(fp chunk.Fingerprint, loc chunk.Location) {
	ix.insert(ix.dev, fp, loc)
}

// Insert is Index.Insert charged to the handle's clock.
func (h Handle) Insert(fp chunk.Fingerprint, loc chunk.Location) {
	h.ix.insert(h.dev, fp, loc)
}

func (ix *Index) insert(dev *disk.Device, fp chunk.Fingerprint, loc chunk.Location) {
	sh := ix.shardOf(ix.bucket(fp))
	sh.mu.Lock()
	sh.m[fp] = loc
	sh.pending++
	var flushN int
	if sh.pending >= ix.cfg.FlushBatch {
		flushN = sh.pending
		sh.pending = 0
	}
	sh.mu.Unlock()
	if flushN > 0 {
		ix.chargeFlush(dev, flushN)
	}
	ix.inserts.Add(1)
	telInserts.Inc()
}

// Update repoints an existing fingerprint to a new location (the DeFrag
// rewrite path: the newest, linearized copy becomes authoritative). Cost
// model is identical to Insert.
func (ix *Index) Update(fp chunk.Fingerprint, loc chunk.Location) {
	ix.insert(ix.dev, fp, loc)
}

// Update is Index.Update charged to the handle's clock.
func (h Handle) Update(fp chunk.Fingerprint, loc chunk.Location) {
	h.ix.insert(h.dev, fp, loc)
}

// Load installs a fingerprint mapping without charging any simulated time
// or buffering a write-back. It is the reopen path: rebuilding the index
// from a durable backend's container directory models recovering on-disk
// state that already exists, not new index writes.
func (ix *Index) Load(fp chunk.Fingerprint, loc chunk.Location) {
	sh := ix.shardOf(ix.bucket(fp))
	sh.mu.Lock()
	sh.m[fp] = loc
	sh.mu.Unlock()
}

// Delete drops a fingerprint mapping without charging time. It is the
// repair path: when fsck quarantines a container, every index entry that
// pointed into it must go, or lookups would resolve to vanished bytes.
// The boolean reports whether the mapping existed.
func (ix *Index) Delete(fp chunk.Fingerprint) bool {
	sh := ix.shardOf(ix.bucket(fp))
	sh.mu.Lock()
	_, ok := sh.m[fp]
	delete(sh.m, fp)
	sh.mu.Unlock()
	return ok
}

// Flush forces the pending write-back on every shard. Backups do not call
// it: the RAM map is authoritative and the index is rebuilt from container
// metadata on reopen, so a backup's inserts ride in the shard buffers until
// one fills. Maintenance and GC flush after repointing moved chunks.
func (ix *Index) Flush() {
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		n := sh.pending
		sh.pending = 0
		sh.mu.Unlock()
		if n > 0 {
			ix.chargeFlush(ix.dev, n)
		}
	}
}

// chargeFlush accounts one batched sequential write-back of n buffered
// inserts: the merge log. It runs outside the stripe lock — the buffer was
// already claimed (pending reset to 0) under the lock, so the charge being
// out from under the mutex only shortens hold times, never double-counts.
func (ix *Index) chargeFlush(dev *disk.Device, n int) {
	dev.AppendHole(int64(n) * entrySize)
	ix.flushes.Add(1)
	telFlushes.Inc()
}

// Len returns the number of indexed fingerprints.
func (ix *Index) Len() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Range iterates all mappings (in arbitrary order) until fn returns false.
// Free of simulated time — for checkers and diagnostics, not engines. fn is
// called outside shard locks (on a snapshot of each stripe), so it may call
// back into the index.
func (ix *Index) Range(fn func(chunk.Fingerprint, chunk.Location) bool) {
	type pair struct {
		fp  chunk.Fingerprint
		loc chunk.Location
	}
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		snap := make([]pair, 0, len(sh.m))
		for fp, loc := range sh.m {
			snap = append(snap, pair{fp, loc})
		}
		sh.mu.Unlock()
		for _, p := range snap {
			if !fn(p.fp, p.loc) {
				return
			}
		}
	}
}

// Stats returns cumulative counters.
func (ix *Index) Stats() Stats {
	return Stats{
		Lookups:   ix.lookups.Load(),
		PageHits:  ix.pageHits.Load(),
		PageReads: ix.pageReads.Load(),
		Inserts:   ix.inserts.Load(),
		Flushes:   ix.flushes.Load(),
		NotFound:  ix.notFound.Load(),
	}
}

// CacheHitRate returns the page-cache hit rate over all charged lookups.
func (ix *Index) CacheHitRate() float64 {
	lookups := ix.lookups.Load()
	if lookups == 0 {
		return 0
	}
	return float64(ix.pageHits.Load()) / float64(lookups)
}
