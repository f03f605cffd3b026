package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/workload"
)

// Shapes of the serial workloads. A round must fit in a few seconds so a
// run holds several.
const (
	gensUsers  = 4
	gensCount  = 12      // generations per user: enough for fragmentation to build
	gensStream = 2 << 20 // bytes per backup stream

	churnVolumes   = 8
	churnRounds    = 8
	churnRetention = 4       // rounds retained; older rounds are forgotten
	churnStream    = 1 << 20 // bytes per volume per round

	minRounds = 3 // rounds per run at least: the repeat pair plus one fresh set
)

// generate reads every scheduled stream into memory and fingerprints it.
func generate(sched workload.Schedule, n int) ([]*input, error) {
	ins := make([]*input, 0, n)
	for i := 0; i < n; i++ {
		bk := sched.Next()
		data, err := io.ReadAll(bk.Stream)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", bk.Label, err)
		}
		ins = append(ins, &input{label: bk.Label, user: bk.User, data: data, sum: sha256.Sum256(data)})
	}
	return ins, nil
}

// runRounds repeats a round on a fresh store until the run's seconds are
// spent (at least minRounds). Round i generates input set max(0, i-1),
// seeded from the run's seed: round 1 regenerates round 0's set and must
// reproduce its bytes and every count exactly, and every later round draws
// a fresh set, so a run's figures cover several inputs rather than one. A
// round's set-up is its input generation plus the Open of its empty store.
// In a traced run odd rounds are traced.
func runRounds(ctx context.Context, b *bench, opts repro.Options, gen func(seed int64) ([]*input, error),
	roundFn func(context.Context, *round, []*input) error) error {
	start := time.Now()
	var rounds []*round
	var sig0 []string
	var ins []*input
	var setups []float64
	for i := 0; i < minRounds || time.Since(start) < b.seconds; i++ {
		r, err := b.newRound(i, b.trace && i%2 == 1)
		if err != nil {
			return err
		}
		sw := startStopwatch()
		ins, err = gen(workload.DeriveSeed(b.seed, "perfbench-round", int64(max(0, i-1))))
		if err != nil {
			return err
		}
		if err := r.open(opts); err != nil {
			return err
		}
		wall, served := sw.elapsed()
		setups = append(setups, wall.Seconds()*served)
		hs := startHeapSampler()
		sw = startStopwatch()
		err = roundFn(ctx, r, ins)
		_, r.served = sw.elapsed()
		r.heapPeak = hs.end()
		r.close()
		if !b.op(err) {
			break
		}
		for _, in := range ins {
			r.record("input %s %x", in.label, in.sum)
		}
		switch i {
		case 0:
			sig0 = r.lines
		case 1:
			diff := sameLines(sig0, r.lines)
			b.check(diff == "", "round 1 repeats round 0's inputs but differs: %s", diff)
		}
		rounds = append(rounds, r)
	}
	b.note("rounds=%d in %.1fs; round 0 signature %x", len(rounds), time.Since(start).Seconds(), digestLines(sig0))
	report(b, rounds, setups)
	if !b.trace {
		return nil
	}
	return replay(b, ins)
}

// sameLines returns "" when a and b match, else the first difference.
func sameLines(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: %q vs %q", i, x, y)
		}
	}
	return ""
}

func digestLines(lines []string) []byte {
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return h.Sum(nil)[:8]
}

// runBackupGens: 4 users × 12 generations ingested serially with DeFrag at
// α=0.1; restores of every user's oldest and latest generation (each
// restore with its own 8-container LRU cache, verify on); one maintenance
// epoch; Close and reopen; the latest generations restored again.
func runBackupGens(ctx context.Context, b *bench) error {
	gen := func(seed int64) ([]*input, error) {
		sched, err := workload.NewScenario(workload.ScenarioBackup, workload.ScenarioParams{
			Seed: seed, Users: gensUsers, BytesPerStream: gensStream})
		if err != nil {
			return nil, err
		}
		return generate(sched, gensUsers*gensCount)
	}
	opts := repro.Options{Alpha: 0.1, ExpectedBytes: 2 * gensUsers * gensCount * gensStream}
	return runRounds(ctx, b, opts, gen, func(ctx context.Context, r *round, ins []*input) error {
		phase(&r.ingestWall, func() {
			for _, in := range ins {
				r.backup(ctx, in)
			}
		})
		oldest, latest := ins[:gensUsers], ins[len(ins)-gensUsers:]
		phase(&r.restoreWall, func() {
			for u := 0; u < gensUsers; u++ {
				r.restore(ctx, oldest[u], true, true)
				r.restore(ctx, latest[u], true, true)
			}
		})
		r.maintain(ctx)
		r.finish()
		return durability(ctx, r, opts, latest)
	})
}

// runPrimaryChurn: 8 primary-storage volumes × 8 rounds with the inline
// filter on; after each round the round that fell out of the 4-round
// retention is forgotten and one maintenance epoch runs. Then the latest
// round is restored, the store closed and reopened, and the latest round
// restored again.
func runPrimaryChurn(ctx context.Context, b *bench) error {
	gen := func(seed int64) ([]*input, error) {
		sched, err := workload.NewPrimary(workload.PrimaryConfig{
			Seed: seed, Streams: churnVolumes, StreamBytes: churnStream})
		if err != nil {
			return nil, err
		}
		return generate(sched, churnVolumes*churnRounds)
	}
	opts := repro.Options{Alpha: 0.1, ExpectedBytes: 2 * churnVolumes * churnRounds * churnStream,
		Filter: repro.FilterOptions{Enabled: true}}
	return runRounds(ctx, b, opts, gen, func(ctx context.Context, r *round, ins []*input) error {
		for k := 0; k < churnRounds; k++ {
			phase(&r.ingestWall, func() {
				for _, in := range ins[k*churnVolumes : (k+1)*churnVolumes] {
					r.backup(ctx, in)
				}
			})
			if old := k - churnRetention; old >= 0 {
				for _, in := range ins[old*churnVolumes : (old+1)*churnVolumes] {
					r.forget(ctx, in.label)
				}
			}
			r.maintain(ctx)
		}
		latest := ins[len(ins)-churnVolumes:]
		phase(&r.restoreWall, func() {
			for _, in := range latest {
				r.restore(ctx, in, true, true)
			}
		})
		r.finish()
		return durability(ctx, r, opts, latest)
	})
}

// durability closes and reopens the store and restores ins again from the
// reopened store. The first round also checks the reopened store with data
// verification; round 1 builds the same store and must match round 0
// count for count, and a check per round would cost more than the round.
func durability(ctx context.Context, r *round, opts repro.Options, ins []*input) error {
	if err := r.reopen(opts); err != nil {
		return err
	}
	if r.idx == 0 {
		r.checkStore(ctx)
	}
	for _, in := range ins {
		r.restore(ctx, in, false, false)
	}
	return nil
}
