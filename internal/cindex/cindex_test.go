package cindex

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
	"repro/internal/disk"
)

func fpOf(i uint64) chunk.Fingerprint {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return chunk.Of(b[:])
}

func newTestIndex(t *testing.T, cfg Config) (*Index, *disk.Clock) {
	t.Helper()
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, false)
	ix, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk.Reset()
	return ix, &clk
}

func smallCfg() Config {
	return Config{PageSize: 4096, NumBuckets: 64, CachePages: 4, FlushBatch: 16}
}

func TestNewRejectsBadConfig(t *testing.T) {
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, false)
	for _, cfg := range []Config{{}, {PageSize: 1}, {PageSize: 1, NumBuckets: 1}} {
		if _, err := New(dev, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestDefaultConfigScales(t *testing.T) {
	small := DefaultConfig(1000)
	big := DefaultConfig(10_000_000)
	if big.NumBuckets <= small.NumBuckets {
		t.Fatal("buckets must grow with population")
	}
	if small.CachePages < 4 {
		t.Fatal("cache floor")
	}
	if DefaultConfig(0).NumBuckets < 1 {
		t.Fatal("degenerate population")
	}
}

func TestInsertLookup(t *testing.T) {
	ix, _ := newTestIndex(t, smallCfg())
	loc := chunk.Location{Container: 3, Segment: 9, Offset: 100, Size: 42}
	ix.Insert(fpOf(1), loc)
	got, ok := ix.Lookup(fpOf(1))
	if !ok || got != loc {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	if _, ok := ix.Lookup(fpOf(2)); ok {
		t.Fatal("absent key found")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestUpdateRepoints(t *testing.T) {
	ix, _ := newTestIndex(t, smallCfg())
	ix.Insert(fpOf(1), chunk.Location{Container: 1, Offset: 10, Size: 5})
	newLoc := chunk.Location{Container: 7, Offset: 999, Size: 5}
	ix.Update(fpOf(1), newLoc)
	if got, _ := ix.Peek(fpOf(1)); got != newLoc {
		t.Fatalf("Peek after update = %v", got)
	}
}

func TestLookupChargesOnMissOnly(t *testing.T) {
	ix, clk := newTestIndex(t, smallCfg())
	fp := fpOf(42)
	ix.Insert(fp, chunk.Location{Size: 1})
	t0 := clk.Now()
	ix.Lookup(fp) // cold: page read
	t1 := clk.Now()
	if t1 == t0 {
		t.Fatal("cold lookup must charge a page read")
	}
	ix.Lookup(fp) // warm: same bucket now cached
	if clk.Now() != t1 {
		t.Fatal("warm lookup must be free")
	}
	st := ix.Stats()
	if st.PageReads != 1 || st.PageHits != 1 || st.Lookups != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeekIsFree(t *testing.T) {
	ix, clk := newTestIndex(t, smallCfg())
	ix.Insert(fpOf(1), chunk.Location{Size: 1})
	before := clk.Now()
	if _, ok := ix.Peek(fpOf(1)); !ok {
		t.Fatal("Peek miss")
	}
	if clk.Now() != before {
		t.Fatal("Peek must not charge time")
	}
}

func TestCacheEvictionCausesRereads(t *testing.T) {
	cfg := smallCfg() // 4 cache pages, 64 buckets
	ix, _ := newTestIndex(t, cfg)
	// Touch many distinct buckets: with only 4 cache pages most lookups
	// must pay disk reads.
	for i := uint64(0); i < 200; i++ {
		ix.Lookup(fpOf(i))
	}
	st := ix.Stats()
	if st.PageReads < 100 {
		t.Fatalf("expected mostly page reads with tiny cache, got %+v", st)
	}
	if ix.CacheHitRate() > 0.5 {
		t.Fatalf("hit rate %v implausibly high", ix.CacheHitRate())
	}
}

func TestNotFoundCounted(t *testing.T) {
	ix, _ := newTestIndex(t, smallCfg())
	ix.Lookup(fpOf(1))
	if ix.Stats().NotFound != 1 {
		t.Fatal("NotFound must count")
	}
}

// fpsInBucket scans fingerprints until it finds n that hash to bucket b.
func fpsInBucket(ix *Index, b, n int) []chunk.Fingerprint {
	out := make([]chunk.Fingerprint, 0, n)
	for i := uint64(0); len(out) < n; i++ {
		if fp := fpOf(i); ix.bucket(fp) == b {
			out = append(out, fp)
		}
	}
	return out
}

func TestFlushBatching(t *testing.T) {
	ix, clk := newTestIndex(t, smallCfg()) // FlushBatch 16, per shard
	// Write-back buffers are per lock stripe: keep every insert in one
	// bucket (hence one shard) so the batch threshold is exercised exactly.
	fps := fpsInBucket(ix, 0, 17)
	for _, fp := range fps[:15] {
		ix.Insert(fp, chunk.Location{Size: 1})
	}
	if ix.Stats().Flushes != 0 {
		t.Fatal("no flush before batch full")
	}
	ix.Insert(fps[15], chunk.Location{Size: 1})
	if ix.Stats().Flushes != 1 {
		t.Fatal("batch full must flush")
	}
	before := clk.Now()
	ix.Flush() // nothing pending
	if clk.Now() != before || ix.Stats().Flushes != 1 {
		t.Fatal("empty Flush must be free")
	}
	ix.Insert(fps[16], chunk.Location{Size: 1})
	ix.Flush()
	if ix.Stats().Flushes != 2 {
		t.Fatal("explicit flush of pending entries")
	}
}

// TestInsertsBatchAcrossHandles models several small backups, each
// inserting through its own Handle (stream clock): inserts below FlushBatch
// charge no write-back to anyone, however many handles they arrive through,
// and the insert that fills the shard's buffer writes the whole batch back
// once, charged to the handle that made it.
func TestInsertsBatchAcrossHandles(t *testing.T) {
	ix, _ := newTestIndex(t, smallCfg()) // FlushBatch 16, per shard
	fps := fpsInBucket(ix, 0, 16)
	clks := make([]disk.Clock, 4)
	written := ix.dev.Stats().BytesWritten
	for i, fp := range fps[:15] {
		ix.Handle(&clks[i%3]).Insert(fp, chunk.Location{Size: 1})
	}
	for i := range clks {
		if clks[i].Now() != 0 {
			t.Fatalf("handle %d charged %v before any shard buffer filled", i, clks[i].Now())
		}
	}
	if ix.Stats().Flushes != 0 || ix.dev.Stats().BytesWritten != written {
		t.Fatalf("no write-back expected below FlushBatch: %+v", ix.Stats())
	}
	ix.Handle(&clks[3]).Insert(fps[15], chunk.Location{Size: 1})
	if ix.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d, want exactly one batched write-back", ix.Stats().Flushes)
	}
	if got := ix.dev.Stats().BytesWritten - written; got != 16*entrySize {
		t.Fatalf("write-back wrote %d bytes, want %d", got, 16*entrySize)
	}
	if clks[3].Now() == 0 || clks[0].Now() != 0 || clks[1].Now() != 0 || clks[2].Now() != 0 {
		t.Fatal("the write-back must be charged to the handle whose insert filled the buffer")
	}
}

func TestLookupBatchChargesOncePerUncachedBucket(t *testing.T) {
	ix, clk := newTestIndex(t, smallCfg())
	// Build a batch over exactly three distinct buckets with repeats
	// interleaved, mimicking a segment whose chunks collide on index pages.
	// Non-adjacent buckets (own seek each) in distinct lock stripes (4
	// shards here), so the warm re-batch below finds all three still cached.
	a := fpsInBucket(ix, 1, 3)
	b := fpsInBucket(ix, 3, 2)
	c := fpsInBucket(ix, 6, 1)
	ix.Insert(a[0], chunk.Location{Size: 1})
	ix.Flush()
	clk.Reset()
	batch := []chunk.Fingerprint{a[0], b[0], a[1], c[0], b[1], a[2]}
	res := ix.LookupBatch(batch)
	st := ix.Stats()
	if st.PageReads != 3 {
		t.Fatalf("PageReads = %d, want exactly one per distinct uncached bucket (3)", st.PageReads)
	}
	if st.PageHits != int64(len(batch)-3) {
		t.Fatalf("PageHits = %d, want %d", st.PageHits, len(batch)-3)
	}
	if st.Lookups != int64(len(batch)) {
		t.Fatalf("Lookups = %d, want %d", st.Lookups, len(batch))
	}
	wantTime := 3 * (disk.DefaultModel().Seek + disk.DefaultModel().ReadTime(smallCfg().PageSize))
	if clk.Now() != wantTime {
		t.Fatalf("charged %v, want %v (3 page reads)", clk.Now(), wantTime)
	}
	if !res[0].Found || res[1].Found {
		t.Fatalf("positional results wrong: %+v", res)
	}
	// A second batch over the same buckets is served from cache entirely.
	t1 := clk.Now()
	ix.LookupBatch(batch)
	if ix.Stats().PageReads != 3 || clk.Now() != t1 {
		t.Fatal("warm batch must be free")
	}
}

func TestLookupBatchMatchesLookup(t *testing.T) {
	cfg := smallCfg()
	ixA, _ := newTestIndex(t, cfg)
	ixB, _ := newTestIndex(t, cfg)
	var fps []chunk.Fingerprint
	for i := uint64(0); i < 300; i++ {
		fp := fpOf(i)
		fps = append(fps, fp)
		if i%3 == 0 {
			loc := chunk.Location{Container: uint32(i), Size: 1}
			ixA.Insert(fp, loc)
			ixB.Insert(fp, loc)
		}
	}
	res := ixA.LookupBatch(fps)
	for i, fp := range fps {
		loc, ok := ixB.Lookup(fp)
		if res[i].Found != ok || res[i].Loc != loc {
			t.Fatalf("fp %d: batch (%v,%v) vs lookup (%v,%v)", i, res[i].Loc, res[i].Found, loc, ok)
		}
	}
}

func TestLookupBatchEmpty(t *testing.T) {
	ix, clk := newTestIndex(t, smallCfg())
	if res := ix.LookupBatch(nil); len(res) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	if clk.Now() != 0 || ix.Stats().Lookups != 0 {
		t.Fatal("empty batch must be free")
	}
}

func TestConfigForPage(t *testing.T) {
	// entries-per-page must follow the configured page size: a 4× larger
	// page holds ~4× the entries and needs ~4× fewer buckets.
	small := ConfigForPage(8192, 1_000_000)
	big := ConfigForPage(32768, 1_000_000)
	if small.PageSize != 8192 || big.PageSize != 32768 {
		t.Fatalf("page sizes: %d, %d", small.PageSize, big.PageSize)
	}
	ratio := float64(small.NumBuckets) / float64(big.NumBuckets)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("bucket ratio = %.2f, want ~4 (buckets %d vs %d)", ratio, small.NumBuckets, big.NumBuckets)
	}
	if got := DefaultConfig(1_000_000); got != ConfigForPage(8192, 1_000_000) {
		t.Fatal("DefaultConfig must equal ConfigForPage at 8 KiB")
	}
}

func TestShardsAutoSizing(t *testing.T) {
	ix, _ := newTestIndex(t, smallCfg()) // CachePages 4 < 16 → 4 shards
	if ix.NumShards() != 4 {
		t.Fatalf("auto shards = %d, want 4", ix.NumShards())
	}
	ix2, _ := newTestIndex(t, Config{PageSize: 4096, NumBuckets: 64, CachePages: 64, FlushBatch: 16, Shards: 3})
	if ix2.NumShards() != 3 {
		t.Fatalf("explicit shards = %d, want 3", ix2.NumShards())
	}
}

func TestCacheHitRateEmpty(t *testing.T) {
	ix, _ := newTestIndex(t, smallCfg())
	if ix.CacheHitRate() != 0 {
		t.Fatal("no lookups → rate 0")
	}
}

// Property: the index agrees with a plain map under random insert/update/
// lookup sequences.
func TestIndexModelProperty(t *testing.T) {
	ix, _ := newTestIndex(t, Config{PageSize: 4096, NumBuckets: 16, CachePages: 2, FlushBatch: 8})
	model := map[chunk.Fingerprint]chunk.Location{}
	fn := func(key uint8, container uint8, lookupOnly bool) bool {
		fp := fpOf(uint64(key))
		if lookupOnly {
			got, ok := ix.Lookup(fp)
			want, wok := model[fp]
			return ok == wok && got == want
		}
		loc := chunk.Location{Container: uint32(container), Size: 1}
		model[fp] = loc
		ix.Insert(fp, loc)
		return ix.Len() == len(model)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleBasics(t *testing.T) {
	o := NewOracle()
	if o.Observe(fpOf(1), 100) {
		t.Fatal("first occurrence is not redundant")
	}
	if !o.Observe(fpOf(1), 100) {
		t.Fatal("second occurrence is redundant")
	}
	if o.Observe(fpOf(2), 50) {
		t.Fatal("new chunk not redundant")
	}
	if o.TotalBytes() != 250 || o.RedundantBytes() != 100 || o.Unique() != 2 {
		t.Fatalf("oracle counters: total=%d red=%d uniq=%d", o.TotalBytes(), o.RedundantBytes(), o.Unique())
	}
	if !o.Seen(fpOf(2)) || o.Seen(fpOf(3)) {
		t.Fatal("Seen wrong")
	}
}

func TestOracleCompressionRatio(t *testing.T) {
	o := NewOracle()
	if o.CompressionRatio() != 1 {
		t.Fatal("empty oracle ratio must be 1")
	}
	o.Observe(fpOf(1), 100)
	o.Observe(fpOf(1), 100)
	o.Observe(fpOf(1), 100)
	if got := o.CompressionRatio(); got != 3 {
		t.Fatalf("ratio = %v, want 3", got)
	}
}

// Property: redundantBytes + uniqueBytes == totalBytes always.
func TestOracleConservationProperty(t *testing.T) {
	o := NewOracle()
	uniqueBytes := int64(0)
	fn := func(key uint8, szRaw uint8) bool {
		size := uint32(szRaw) + 1
		fp := fpOf(uint64(key))
		if !o.Observe(fp, size) {
			uniqueBytes += int64(size)
		}
		return o.TotalBytes() == o.RedundantBytes()+uniqueBytes
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, false)
	ix, err := New(dev, DefaultConfig(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 100_000; i++ {
		ix.Insert(fpOf(i), chunk.Location{Size: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(fpOf(uint64(i % 200_000)))
	}
}

// BenchmarkLookupBatch resolves segment-sized batches; compare against
// BenchmarkLookup for the per-chunk baseline (ns normalized per lookup).
func BenchmarkLookupBatch(b *testing.B) {
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, false)
	ix, err := New(dev, DefaultConfig(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 100_000; i++ {
		ix.Insert(fpOf(i), chunk.Location{Size: 1})
	}
	const batch = 256 // ~one segment of 4 KiB chunks
	fps := make([]chunk.Fingerprint, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range fps {
			fps[j] = fpOf(uint64((i*batch + j) % 200_000))
		}
		ix.LookupBatch(fps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/lookup")
}
