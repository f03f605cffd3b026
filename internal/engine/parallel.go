package engine

import (
	"context"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/segment"
)

// hashFaultHook, when non-nil, is called by hash workers for every chunk
// they fingerprint and lets tests inject a mid-batch worker failure. It must
// be set before a pipeline starts and cleared after it finishes.
var hashFaultHook func(chunk.Chunk) error

// batchChunks caps the number of chunks hashed per job: SHA-256 of an 8 KiB
// chunk is far cheaper than a channel round trip, so per-chunk handoff would
// make the pool slower than the serial loop.
const batchChunks = 64

// jobBytes is the fixed capacity of a job's chunk buffer: a batch of
// target-size chunks plus one maximum-size chunk. The producer cuts a batch
// early rather than grow the buffer, so a recycled job never reallocates.
func jobBytes(cp chunker.Params) int { return batchChunks*cp.Target + cp.Max }

// job is one batch of chunks on its way through the hash workers.
type job struct {
	data []byte // concatenated chunk bytes, capacity jobBytes
	ends []int  // end offset of each chunk within data
	res  []chunk.Chunk
	err  error // injected worker fault (hashFaultHook)
	out  chan []chunk.Chunk
}

// jobPool recycles jobs (chunk bytes, end offsets, result slices, handoff
// channels) across every ParallelPipeline call in the process: a backup
// reuses the buffers the previous one retired instead of growing its own,
// so live job memory follows the batches in flight. A job goes back to the
// pool only once nothing can read it: its result has been received from
// out, and with keepData every chunk aliasing data has passed through a
// processed segment.
var jobPool = sync.Pool{New: func() any { return &job{out: make(chan []chunk.Chunk, 1)} }}

// getJob takes an empty job with a size-byte chunk buffer from jobPool.
func getJob(size int) *job {
	j := jobPool.Get().(*job)
	if cap(j.data) != size {
		j.data = make([]byte, 0, size)
	}
	j.data = j.data[:0]
	j.ends = j.ends[:0]
	j.err = nil
	return j
}

// ParallelPipeline is Pipeline with the fingerprinting stage fanned out
// across worker goroutines (the P-Dedupe idea the paper's venue literature
// describes: chunking is sequential by nature, hashing is embarrassingly
// parallel, dedup decisions must stay in stream order).
//
// Structure:
//
//	chunker (sequential) → bounded SPMC queue → [workers × SHA-256] →
//	in-order resequencing → segmenter → process (sequential)
//
// The simulated-time accounting is identical to Pipeline — the CPU cost
// model charges the same bytes; parallelism buys real wall-clock time for
// the simulation itself, not simulated time (a real system would also
// divide the modeled CPU term, which the CostModel caller can express by
// raising CPUBandwidth). Results are bit-identical to Pipeline for the
// same input.
//
// Chunk bytes flow zero-copy end to end: the producer copies each chunk
// once from the chunker window into a job buffer, workers and the segment
// path alias that buffer, and the job is recycled once every chunk in it
// has passed through a processed segment. Jobs and the chunker window come
// from process-wide pools, so once the pools are warm neither a batch nor a
// whole backup allocates fresh ingest buffers.
func ParallelPipeline(
	ctx context.Context,
	r io.Reader,
	kind chunker.Kind,
	cp chunker.Params,
	sp segment.Params,
	clock *disk.Clock,
	cost CostModel,
	keepData bool,
	workers int,
	process func(*segment.Segment) error,
) (logicalBytes, chunks, segments int64, err error) {
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		// One lane (or a single-core host): the worker machinery is pure
		// overhead — run the serial pipeline. Workers = 1 means "explicitly
		// serial" (0 would re-resolve to GOMAXPROCS and recurse).
		serial := cost
		serial.Workers = 1
		return Pipeline(ctx, r, kind, cp, sp, clock, serial, keepData, process)
	}
	cost.Workers = 1 // the charge below is already per-chunk; avoid re-dispatch

	sg, err := segment.New(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	ck, err := chunker.New(kind, r, cp)
	if err != nil {
		return 0, 0, 0, err
	}
	// The producer is the chunker's only reader, and every return below
	// waits for the workers, which exit only after the producer has closed
	// jobs — so the window is idle by the time it is released.
	defer ck.Release()

	// Bounded queue: the chunker stays ahead of the hashers without
	// buffering the whole stream.
	jobs := make(chan *job, workers*2)
	// Order-preserving handoff: each job carries its own result channel;
	// the consumer reads jobs' channels in submission order.
	pending := make(chan *job, workers*2)
	// stop tells the producer the consumer gave up (process error, ctx
	// cancellation) so it cuts the stream short instead of chunking to EOF.
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t0 := time.Now()
				out := j.res[:0]
				start := 0
				for _, end := range j.ends {
					c := chunk.New(j.data[start:end:end])
					if !keepData {
						c.Data = nil
					}
					if hashFaultHook != nil {
						if ferr := hashFaultHook(c); ferr != nil {
							j.err = ferr
							break
						}
					}
					out = append(out, c)
					start = end
				}
				j.res = out
				stageHash.Observe(t0) // one observation per batch of chunks
				j.out <- out
			}
		}()
	}

	var chunkErr error
	go func() {
		defer close(jobs)
		defer close(pending)
		// cur is the batch being filled, taken from the pool when its first
		// chunk arrives; a batch the producer never sends goes straight back.
		var cur *job
		defer func() {
			if cur != nil {
				jobPool.Put(cur)
			}
		}()
		size := jobBytes(cp)
		flush := func() {
			if cur == nil {
				return
			}
			pending <- cur
			jobs <- cur
			cur = nil
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cerr := ctx.Err(); cerr != nil {
				chunkErr = cerr
				return
			}
			t0 := time.Now()
			raw, cerr := ck.Next()
			stageChunk.Observe(t0)
			if cerr == io.EOF {
				flush()
				return
			}
			if cerr != nil {
				flush()
				chunkErr = cerr
				return
			}
			// The chunker reuses its window; the job owns the single copy.
			if cur != nil && len(cur.data)+len(raw) > cap(cur.data) {
				flush()
			}
			if cur == nil {
				cur = getJob(size)
			}
			cur.data = append(cur.data, raw...)
			cur.ends = append(cur.ends, len(cur.data))
			if len(cur.ends) >= batchChunks {
				flush()
			}
		}
	}()

	// Without keepData a job recycles as soon as the consumer drains it;
	// with keepData the emitted chunks alias job.data, so drained jobs park
	// on a retire list until the next processed segment proves every chunk
	// added so far has been consumed.
	var retired []*job
	recycle := func() {
		for _, rj := range retired {
			jobPool.Put(rj)
		}
		retired = retired[:0]
	}
	// Every return below comes after the workers have exited and no process
	// call is running, so jobs still parked (the segment holding their
	// chunks failed, or will never be emitted) are dead too.
	defer recycle()
	emit := func(seg *segment.Segment) error {
		if seg == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		segments++
		telSegments.Inc()
		if err := process(seg); err != nil {
			return err
		}
		// The processed segment contained every chunk added since the last
		// emit, so all drained jobs' bytes are dead — recycle them.
		recycle()
		return nil
	}
	abort := func(err error) (int64, int64, int64, error) {
		// Stop the producer, then drain it so all goroutines exit before
		// returning (no leaks even when the stream is far from EOF).
		// Drained jobs go back to the pool once their result is received:
		// the worker is done with them and no segment holds their chunks.
		close(stop)
		go func() {
			for j := range pending {
				<-j.out
				jobPool.Put(j)
			}
		}()
		wg.Wait()
		return logicalBytes, chunks, segments, err
	}
	for j := range pending {
		res := <-j.out
		if j.err != nil {
			return abort(j.err)
		}
		for _, c := range res {
			cost.ChargeCPU(clock, int64(c.Size))
			logicalBytes += int64(c.Size)
			chunks++
			telChunks.Inc()
			telBytes.Add(int64(c.Size))
			telChunkSize.Observe(float64(c.Size))
			if err := emit(sg.Add(c)); err != nil {
				return abort(err)
			}
		}
		if !keepData {
			jobPool.Put(j)
		} else {
			retired = append(retired, j)
		}
	}
	wg.Wait()
	if chunkErr != nil {
		return logicalBytes, chunks, segments, chunkErr
	}
	if err := emit(sg.Finish()); err != nil {
		return logicalBytes, chunks, segments, err
	}
	return logicalBytes, chunks, segments, nil
}
