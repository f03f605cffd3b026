package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/disk"
)

// input is one generated backup stream, held in memory.
type input struct {
	label  string
	tenant string
	user   int
	data   []byte
	sum    [32]byte
}

// round is one measured repetition of a workload over a fresh store
// directory. Everything a round observes is summed here; the report takes
// medians (end to end) or means (per layer) across rounds.
type round struct {
	b      *bench
	idx    int
	rec    *recorder // nil for an untraced round
	dir    string
	be     backendStats
	lines  []string // the round's deterministic counts, compared across rounds
	st     *repro.Store
	detail bool // record counts in lines (serial workloads)

	storeNS    map[string]int64
	inNS       int64
	outNS      int64
	checkWalls []time.Duration

	ingestBytes, restoreBytes int64
	ingestWall, restoreWall   time.Duration
	winIngest, winRestore     []float64 // MB/s per second of a time-bounded session
	ingestSim, restoreSim     time.Duration
	eq1                       time.Duration
	ingestLat, restoreLat     latencies
	maintWall, reopenWall     time.Duration
	maintLat                  latencies // one sample per maintenance epoch
	// served is the share of the guest's CPU demand the hypervisor served
	// during the round (see stopwatch); report scales the round's
	// wall-clock figures by it.
	served   float64
	heapPeak float64 // MiB of live heap above the post-set-up baseline

	eng      repro.BackupStats  // counters summed over the round's backups
	spilled  int                // streams the inline filter demoted
	rst      repro.RestoreStats // counters summed over the restores restoreSim times
	maint    repro.MaintenanceStats
	end      repro.StoreStats
	manifest int64
	shared   repro.RestoreCacheStats

	handlerNS, clientNS int64
	rejected            int64
}

func (b *bench) newRound(idx int, traced bool) (*round, error) {
	r := &round{b: b, idx: idx, storeNS: make(map[string]int64), detail: true}
	if traced {
		r.rec = newRecorder()
	}
	r.dir = filepath.Join(b.tmp, fmt.Sprintf("store-%d", idx))
	return r, os.MkdirAll(r.dir, 0o755)
}

// phase runs fn, adding its wall time to *wall.
func phase(wall *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*wall += time.Since(t0)
}

// record adds a deterministic observation to the round's signature.
func (r *round) record(format string, args ...any) {
	if r.detail {
		r.lines = append(r.lines, fmt.Sprintf(format, args...))
	}
}

// open opens (or reopens) the round's file-backed DeFrag store.
func (r *round) open(opts repro.Options) error {
	opts.Engine = repro.DeFrag
	opts.Backend = repro.FileBackend
	opts.Dir = r.dir
	opts.StoreData = true
	opts.WrapBackend = wrapBackend(&r.be, r.rec)
	st, err := repro.Open(opts)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	r.st = st
	return nil
}

// reopens is the number of Close+Open cycles a round times.
const reopens = 3

// reopen closes and reopens the populated store reopens times and keeps
// the median cycle's wall time.
func (r *round) reopen(opts repro.Options) error {
	var walls latencies
	for i := 0; i < reopens; i++ {
		t0 := time.Now()
		if err := r.st.Close(); err != nil {
			r.st = nil
			return fmt.Errorf("close store: %w", err)
		}
		r.st = nil
		if err := r.open(opts); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0))
	}
	r.reopenWall = time.Duration(walls.ms(0.5) * 1e6)
	return nil
}

// close closes the store and removes the round's directory.
func (r *round) close() {
	if r.st != nil {
		r.b.op(r.st.Close())
		r.st = nil
	}
	os.RemoveAll(r.dir)
}

// storeOp times one Store call as a root span.
func (r *round) storeOp(ctx context.Context, name string, fn func(context.Context) error, ios ...*ioCounter) (time.Duration, error) {
	ctx, o := r.rec.startOp(ctx, "store."+name, "store", 0)
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	o.end(0, ios...)
	r.storeNS[name] += int64(d)
	return d, err
}

// backup ingests one input through Store.Backup and checks its size.
func (r *round) backup(ctx context.Context, in *input) {
	c := &ioCounter{layer: "input"}
	var bk *repro.Backup
	d, err := r.storeOp(ctx, "ingest", func(ctx context.Context) (err error) {
		bk, err = r.st.Backup(ctx, in.label, &timedReader{r: bytes.NewReader(in.data), c: c})
		return err
	}, c)
	r.inNS += c.ns
	if !r.b.op(err) {
		return
	}
	r.b.check(bk.Stats.LogicalBytes == int64(len(in.data)), "backup %s: %d logical bytes, sent %d",
		in.label, bk.Stats.LogicalBytes, len(in.data))
	r.ingested(bk.Stats, d)
}

// ingested adds one acknowledged backup's statistics.
func (r *round) ingested(s repro.BackupStats, wall time.Duration) {
	r.ingestBytes += s.LogicalBytes
	r.ingestSim += s.Duration
	r.ingestLat = append(r.ingestLat, wall)
	e := &r.eng
	e.LogicalBytes += s.LogicalBytes
	e.Chunks += s.Chunks
	e.UniqueBytes += s.UniqueBytes
	e.DedupedBytes += s.DedupedBytes
	e.RewrittenBytes += s.RewrittenBytes
	e.SpilledBytes += s.SpilledBytes
	e.IndexLookups += s.IndexLookups
	e.MetaPrefetches += s.MetaPrefetches
	e.CacheHits += s.CacheHits
	if s.FilterSpilled {
		r.spilled++
	}
	r.record("backup %+v", s)
}

// restore restores one backup through RestoreWith (defaults plus Verify)
// into a SHA-256 of the output and compares it with the input's. wall
// restores count toward the wall-clock restore metrics, sim restores
// toward the simulated ones; the others are checks only.
func (r *round) restore(ctx context.Context, in *input, wall, sim bool) {
	bk := r.st.FindBackup(in.label)
	if bk == nil {
		r.b.op(fmt.Errorf("restore %s: backup not found", in.label))
		return
	}
	h := sha256.New()
	c := &ioCounter{layer: "output"}
	opts := repro.DefaultRestoreOptions()
	opts.Verify = true
	var rs repro.RestoreStats
	d, err := r.storeOp(ctx, "restore", func(ctx context.Context) (err error) {
		rs, err = r.st.RestoreWith(ctx, bk, &timedWriter{w: h, c: c}, opts)
		return err
	}, c)
	r.outNS += c.ns
	if !r.b.op(err) {
		return
	}
	r.b.check(bytes.Equal(h.Sum(nil), in.sum[:]), "restore %s: SHA-256 differs from the input", in.label)
	r.record("restore wall=%v sim=%v %+v", wall, sim, rs)
	if wall {
		r.restoreBytes += rs.Bytes
		r.restoreLat = append(r.restoreLat, d)
	}
	if sim {
		r.restoredSim(rs)
	}
}

// restoredSim adds one restore's simulated-disk statistics.
func (r *round) restoredSim(rs repro.RestoreStats) {
	r.restoreSim += rs.Duration
	m := disk.DefaultModel()
	r.eq1 += time.Duration(rs.ExtentReads)*m.Seek + m.ReadTime(rs.Bytes)
	t := &r.rst
	t.Bytes += rs.Bytes
	t.Chunks += rs.Chunks
	t.ContainerReads += rs.ContainerReads
	t.CacheHits += rs.CacheHits
	t.ExtentReads += rs.ExtentReads
	t.CoalescedContainers += rs.CoalescedContainers
	t.Fragments += rs.Fragments
}

// forget drops one backup from the retained set.
func (r *round) forget(ctx context.Context, label string) {
	var res repro.ForgetResult
	_, err := r.storeOp(ctx, "forget", func(context.Context) error {
		res = r.st.Forget(label)
		return nil
	})
	if err == nil && !res.Found {
		err = fmt.Errorf("forget %s: not found", label)
	}
	r.b.op(err)
	r.record("forget %s %+v", label, res)
}

// maintain runs one maintenance epoch.
func (r *round) maintain(ctx context.Context) {
	var ms repro.MaintenanceStats
	d, err := r.storeOp(ctx, "maint", func(ctx context.Context) (err error) {
		ms, err = r.st.MaintenanceEpoch(ctx)
		return err
	})
	r.maintWall += d
	r.maintLat = append(r.maintLat, d)
	if !r.b.op(err) {
		return
	}
	r.addMaint(ms)
}

func (r *round) addMaint(ms repro.MaintenanceStats) {
	t := &r.maint
	t.RefsRemapped += ms.RefsRemapped
	t.RefsRededuped += ms.RefsRededuped
	t.ContainersMerged += ms.ContainersMerged
	t.BytesMoved += ms.BytesMoved
	t.BytesReclaimed += ms.BytesReclaimed
	t.VictimsSkipped += ms.VictimsSkipped
	r.record("maint %+v", ms)
}

// checkStore runs Check with data verification and requires it clean.
func (r *round) checkStore(ctx context.Context) {
	var rep repro.CheckReport
	d, err := r.storeOp(ctx, "check", func(ctx context.Context) (err error) {
		rep, err = r.st.Check(ctx, true)
		return err
	})
	r.checkWalls = append(r.checkWalls, d)
	if err == nil && !rep.OK() {
		err = fmt.Errorf("check: %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	r.b.op(err)
}

// finish snapshots the store's end state and the backend's operation
// counts so far.
func (r *round) finish() {
	r.end = r.st.Stats()
	if cs, ok := r.st.RestoreCacheStats(); ok {
		r.shared = cs
	}
	if fi, err := os.Stat(filepath.Join(r.dir, "backups.json")); err == nil {
		r.manifest = fi.Size()
	}
	r.record("end %+v manifest=%d", r.end, r.manifest)
	r.record("backend seals=%d sealBytes=%d reads=%d readBytes=%d drops=%d",
		r.be.sealOps.Load(), r.be.sealBytes.Load(), r.be.readOps.Load(), r.be.readBytes.Load(), r.be.dropOps.Load())
}
