package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/segment"
)

// TestPipelineReusesBuffersAcrossCalls runs back-to-back keepData
// pipelines over a 2 MiB stream, serial and with two hash workers. The
// first call starts from empty pools and so allocates one call's worth of
// ingest buffers (jobs, chunker window, segment arena); the 20 calls after
// it must together allocate less than that. A per-call pool allocates that
// much on every call. GC is off for the measurement so a collection cannot
// empty the pools mid-test.
func TestPipelineReusesBuffersAcrossCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	data := randBytes(2<<20, 15)
	for _, workers := range []int{1, 2} {
		cost := DefaultCostModel()
		cost.Workers = workers
		run := func() {
			var clk disk.Clock
			n := 0
			_, _, _, err := Pipeline(context.Background(),
				bytes.NewReader(data), chunker.KindGear, chunker.DefaultParams(),
				segment.DefaultParams(), &clk, cost, true,
				func(s *segment.Segment) error {
					for _, c := range s.Chunks {
						n += len(c.Data)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(data) {
				t.Fatalf("workers=%d: %d bytes processed, want %d", workers, n, len(data))
			}
		}
		allocated := func(f func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// Two collections empty every sync.Pool, so the first call is cold.
		runtime.GC()
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		first := allocated(run)
		const calls = 20
		rest := allocated(func() {
			for i := 0; i < calls; i++ {
				run()
			}
		})
		debug.SetGCPercent(gcPercent)
		if rest >= first {
			t.Fatalf("workers=%d: %d calls on warm pools allocated %d bytes, the cold first call %d",
				workers, calls, rest, first)
		}
		t.Logf("workers=%d: cold call %d bytes, next %d calls %d bytes", workers, first, calls, rest)
	}
}

// TestPipelinesShareRecyclerConcurrently runs several pipelines at once
// over the shared pools while two of them abort mid-stream, one through a
// hash-worker fault and one through ctx cancellation. Every pipeline that
// runs to the end must see exactly the serial pipeline's chunks, bytes and
// fingerprints: a buffer recycled while a worker or segment still held it
// would corrupt one of them. Run under -race in CI.
func TestPipelinesShareRecyclerConcurrently(t *testing.T) {
	forceParallel(t)
	const size = 3 << 20
	type lane struct {
		workers int
		data    []byte
		want    []chunk.Fingerprint
	}
	var lanes []lane
	for i, workers := range []int{2, 2, 4, 1} {
		data := randBytes(size, int64(30+i))
		lanes = append(lanes, lane{workers, data, tracePipeline(t, data, 1, false).fps})
	}
	faultData := randBytes(size, 40)
	faultFPs := tracePipeline(t, faultData, 1, false).fps
	target := faultFPs[len(faultFPs)/2]
	sentinel := errors.New("injected hash fault")
	hashFaultHook = func(c chunk.Chunk) error {
		if c.FP == target {
			return sentinel
		}
		return nil
	}
	defer func() { hashFaultHook = nil }()

	run := func(ctx context.Context, data []byte, workers int, process func(*segment.Segment) error) error {
		cost := DefaultCostModel()
		cost.Workers = workers
		var clk disk.Clock
		_, _, _, err := Pipeline(ctx, bytes.NewReader(data), chunker.KindGear,
			chunker.DefaultParams(), segment.DefaultParams(), &clk, cost, true, process)
		return err
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(lanes)+2)
		for i, ln := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var fps []chunk.Fingerprint
				var rebuilt []byte
				err := run(context.Background(), ln.data, ln.workers, func(s *segment.Segment) error {
					for _, c := range s.Chunks {
						if chunk.Of(c.Data) != c.FP {
							return errors.New("chunk bytes do not match their fingerprint")
						}
						fps = append(fps, c.FP)
						rebuilt = append(rebuilt, c.Data...)
					}
					return nil
				})
				switch {
				case err != nil:
				case !bytes.Equal(rebuilt, ln.data):
					err = errors.New("reassembled stream differs from the input")
				case len(fps) != len(ln.want):
					err = errors.New("chunk count differs from the serial pipeline")
				default:
					for k := range fps {
						if fps[k] != ln.want[k] {
							err = errors.New("fingerprints differ from the serial pipeline")
							break
						}
					}
				}
				errs[i] = err
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			err := run(context.Background(), faultData, 2, func(*segment.Segment) error { return nil })
			if !errors.Is(err, sentinel) {
				errs[len(lanes)] = fmt.Errorf("hash-fault lane: err = %v, want the injected fault", err)
			}
		}()
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := run(ctx, randBytes(3*size, 41), 2, func(*segment.Segment) error {
				cancel() // the next segment boundary aborts, far from EOF
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				errs[len(lanes)+1] = fmt.Errorf("cancel lane: err = %v, want context.Canceled", err)
			}
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d lane %d: %v", round, i, err)
			}
		}
	}
}
