// Command perfbench is the dedup store's benchmark. One invocation runs one
// named workload against a file-backed repro.Store, checks every output,
// and prints each metric with its unit:
//
//	bash perfbench/run.sh --workload backup-gens --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - backup-gens: the paper's generational backup shape (4 users × 12
//     generations, DeFrag α=0.1, serial Store.Backup), then restores of each
//     user's oldest and latest generation, each with its own 8-container
//     cache, and one maintenance epoch. Ingest is bound by chunking,
//     hashing, index lookups and the rewrite decision; restore by
//     fragmentation.
//   - primary-churn: the primary-storage scenario (8 volumes) with the
//     inline filter on, a 4-round retention (Forget) and a maintenance epoch
//     after every round. Unique-heavy, so container seals, backend writes
//     and maintenance merges carry the load.
//   - tenants-http: the workspace scenario uploaded by 8 tenants through
//     internal/serve on a loopback listener, by 2 closed-loop clients that
//     each alternate an upload with a verified restore of an acknowledged
//     label, plus a maintenance request every 100 requests.
//
// The serial workloads (backup-gens, primary-churn) repeat a round on a
// fresh store until the run's seconds are spent. Round 1 replays round 0's
// inputs and must repeat every count and simulated time exactly; later
// rounds draw fresh inputs from the run's seed, so a run's medians cover
// several inputs. tenants-http runs one closed-loop session for the run's
// seconds, so its backup count grows into the thousands. Every restore is
// checked against the SHA-256 of its input, and every store is closed,
// reopened and restored from again; the first store of a run is also
// checked with Check(verify).
//
// With --trace 0 the result line holds the end-to-end metrics: the
// simulated-disk speeds, the dedup ratio, the peak heap and the set-up
// time. Wall-clock speeds and latencies, scaled by the share of CPU demand
// the hypervisor served, are printed in the notes of every run and are
// per-layer metrics: on a shared host they spread too far between runs to
// gate a regression check. With
// --trace 1 it holds the per-layer metrics: every layer is measured from
// outside, by timing the calls the benchmark makes into its public
// functions (Store methods, an Options.WrapBackend backend wrapper, the
// io.Reader and io.Writer handed to the store, an http.Handler wrapper
// around serve.Server, standalone chunker and chunk.Of replays), plus the
// store's stats structs and telemetry.StageTotals deltas. A traced run
// alternates untraced and traced rounds (two half-length sessions for
// tenants-http), reports the difference as the tracing overhead, and
// writes its spans to .bench_build/traces/.
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// workloadFunc runs one workload and fills b's metrics.
type workloadFunc func(ctx context.Context, b *bench) error

var workloads = map[string]workloadFunc{
	"backup-gens":   runBackupGens,
	"primary-churn": runPrimaryChurn,
	"tenants-http":  runTenantsHTTP,
}

// bench is the state of one invocation.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root
	tmp      string // this run's scratch directory, removed at exit

	e2e   *metricSet
	layer *metricSet

	mu        sync.Mutex // guards attempted, failed, problems (tenants-http clients)
	attempted int
	failed    int
	problems  []string

	notes []string // human report lines
}

// op counts one attempted operation, and a failure when err is non-nil.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
		return false
	}
	return true
}

// check counts a correctness check that is not an operation of its own.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.op(fmt.Errorf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	var b bench
	var seconds int
	var trace int
	flag.StringVar(&b.workload, "workload", "", "workload: backup-gens, primary-churn or tenants-http")
	flag.Int64Var(&b.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&seconds, "seconds", 20, "seconds the run measures")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&b.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()
	w, ok := workloads[b.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	b.seconds = time.Duration(seconds) * time.Second
	b.trace = trace == 1
	b.e2e, b.layer = newMetricSet(), newMetricSet()

	base := filepath.Join(b.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.tmp = tmp
	defer os.RemoveAll(tmp)

	b.note("workload=%s seed=%d seconds=%d trace=%d", b.workload, b.seed, seconds, trace)
	b.note("host: cpus=%d gomaxprocs=%d go=%s os=%s/%s store-fs=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(tmp))
	b.note("flush policy: file backend, fsync'd WAL group commit; recipes and backups.json written by fsync'd atomic rename")

	// The stage counters are process-global; report this workload's delta.
	stages0 := telemetry.StageTotals()
	if err := w(context.Background(), &b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.trace {
		stages1 := telemetry.StageTotals()
		for _, s := range []string{"chunk", "hash", "lookup", "seal", "backend_write", "container_read", "decode", "copy"} {
			b.layer.put("telemetry.stage."+s+"_ns", float64(stages1[s]-stages0[s]), "ns")
		}
		b.layer.put("op_fail_ratio", share(float64(b.failed), float64(b.attempted)), "ratio")
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed}
	set := b.e2e
	if b.trace {
		set = b.layer
	}
	res.Metrics = set.m
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	for _, p := range b.problems {
		fmt.Println("# FAILED:", p)
	}
	for _, name := range set.names {
		m := set.m[name]
		fmt.Printf("# %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// fsType names the filesystem holding dir, from the longest matching mount
// point in /proc/self/mounts ("unknown" where that is unavailable).
func fsType(dir string) string {
	blob, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(blob), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// heapSampler tracks the peak live heap (as of each GC) while a phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler forces a collection so the baseline is the live heap
// right after set-up, then samples every 5 ms until stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), base: liveHeap()}
	h.peak = h.base
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak above the baseline, in MiB.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	peak := max(h.peak, liveHeap())
	return float64(peak-min(peak, h.base)) / (1 << 20)
}
