package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
)

// report turns the rounds into the run's metrics. Simulated speeds and the
// dedup ratio are totals over the untraced rounds; wall-clock speeds and
// the peak heap are medians across them, latencies pool their operations,
// and every wall-clock figure is scaled by the share of its round's CPU
// demand the hypervisor served. Per-layer counters and layer times are per
// round, averaged over all rounds, on the unscaled clock; self times come
// from the traced rounds.
func report(b *bench, rounds []*round, setups []float64) {
	var plain, traced []*round
	for _, r := range rounds {
		if r.rec != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	med := func(rs []*round, f func(*round) float64) float64 {
		xs := make([]float64, 0, len(rs))
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	sum := func(rs []*round, f func(*round) float64) float64 {
		var t float64
		for _, r := range rs {
			t += f(r)
		}
		return t
	}
	// Wall-clock figures are scaled by the share of the guest's CPU demand
	// the hypervisor served: on a shared host, steal comes and goes over
	// minutes (up to half the demand) and would otherwise dominate the
	// run-to-run spread. The unscaled figures are in the notes.
	rawIngest := func(r *round) float64 {
		if len(r.winIngest) > 0 {
			return median(r.winIngest)
		}
		return mbps(r.ingestBytes, r.ingestWall)
	}
	rawRestore := func(r *round) float64 {
		if len(r.winRestore) > 0 {
			return median(r.winRestore)
		}
		return mbps(r.restoreBytes, r.restoreWall)
	}
	ingestMBps := func(r *round) float64 { return rawIngest(r) / r.served }
	restoreMBps := func(r *round) float64 { return rawRestore(r) / r.served }

	b.note("steal share of CPU demand: median %.3f over rounds; unscaled ingest %.2f MB/s, restore %.2f MB/s",
		med(plain, func(r *round) float64 { return 1 - r.served }), med(plain, rawIngest), med(plain, rawRestore))
	// Latency samples pool every untraced round, each scaled by its round's
	// served share.
	pool := func(lat func(*round) latencies) latencies {
		var out latencies
		for _, r := range plain {
			for _, d := range lat(r) {
				out = append(out, time.Duration(float64(d)*r.served))
			}
		}
		return out
	}
	inLat := pool(func(r *round) latencies { return r.ingestLat })
	outLat := pool(func(r *round) latencies { return r.restoreLat })
	maintLat := pool(func(r *round) latencies { return r.maintLat })
	b.note("latency samples: %d ingest, %d restore; p99 has >=10 samples beyond it: %v, %v",
		len(inLat), len(outLat), tailRule(len(inLat), 0.99), tailRule(len(outLat), 0.99))
	b.note("maintenance: %d epochs, median %.3fms", len(maintLat), maintLat.ms(0.5))

	// End to end, only figures that hold still between runs are gated: the
	// simulated-disk speeds and the dedup ratio are fixed by the inputs, and
	// the heap and set-up figures move little. Wall-clock speeds and
	// latencies spread by 0.25 to 1.0 of their median over ten runs on a
	// shared 2-vCPU host, even scaled for steal, because neighbours' disk
	// and CPU load shifts for minutes at a time; they are reported per
	// layer, where no bound applies, and in the notes of every run.
	e := b.e2e
	e.put("ingest_sim_mbps", share(sum(plain, func(r *round) float64 { return float64(r.ingestBytes) }),
		sum(plain, func(r *round) float64 { return r.ingestSim.Seconds() }))/1e6, "MB/s")
	e.put("restore_sim_mbps", share(sum(plain, func(r *round) float64 { return float64(r.rst.Bytes) }),
		sum(plain, func(r *round) float64 { return r.restoreSim.Seconds() }))/1e6, "MB/s")
	e.put("dedup_ratio", share(sum(plain, func(r *round) float64 { return float64(r.end.LogicalBytes) }),
		sum(plain, func(r *round) float64 { return float64(r.end.StoredBytes) })), "x")
	e.put("peak_heap_mib", med(plain, func(r *round) float64 { return r.heapPeak }), "MiB")
	e.put("setup_s", median(setups), "s")

	l := b.layer
	l.put("ingest_mbps", med(plain, ingestMBps), "MB/s")
	l.put("restore_mbps", med(plain, restoreMBps), "MB/s")
	l.put("ingest_p50_ms", inLat.ms(0.5), "ms")
	l.put("ingest_p99_ms", inLat.ms(0.99), "ms")
	l.put("restore_p50_ms", outLat.ms(0.5), "ms")
	l.put("restore_p99_ms", outLat.ms(0.99), "ms")
	l.put("maint_s", maintLat.ms(0.5)/1e3, "s")
	l.put("reopen_s", med(plain, func(r *round) float64 { return r.reopenWall.Seconds() * r.served }), "s")
	for _, name := range l.names {
		b.note("%s %.6g %s", name, l.m[name].Value, l.m[name].Unit)
	}

	per := func(f func(*round) float64) float64 { return sum(rounds, f) / float64(len(rounds)) }
	ns := func(f func(*round) int64) float64 { return per(func(r *round) float64 { return float64(f(r)) }) }
	for _, m := range []string{"ingest", "restore", "forget", "maint", "check"} {
		l.put("store."+m+"_ns", ns(func(r *round) int64 { return r.storeNS[m] }), "ns")
	}
	l.put("store.manifest_bytes", ns(func(r *round) int64 { return r.manifest }), "bytes")
	l.put("input.read_ns", ns(func(r *round) int64 { return r.inNS }), "ns")
	l.put("output.write_ns", ns(func(r *round) int64 { return r.outNS }), "ns")

	var eng repro.BackupStats
	var rst repro.RestoreStats
	var spilled int
	var eq1, restoreSim time.Duration
	for _, r := range rounds {
		eng.LogicalBytes += r.eng.LogicalBytes
		eng.UniqueBytes += r.eng.UniqueBytes
		eng.DedupedBytes += r.eng.DedupedBytes
		eng.RewrittenBytes += r.eng.RewrittenBytes
		eng.SpilledBytes += r.eng.SpilledBytes
		eng.IndexLookups += r.eng.IndexLookups
		eng.MetaPrefetches += r.eng.MetaPrefetches
		eng.CacheHits += r.eng.CacheHits
		spilled += r.spilled
		rst.Bytes += r.rst.Bytes
		rst.ContainerReads += r.rst.ContainerReads
		rst.ExtentReads += r.rst.ExtentReads
		rst.CacheHits += r.rst.CacheHits
		rst.CoalescedContainers += r.rst.CoalescedContainers
		rst.Fragments += r.rst.Fragments
		eq1 += r.eq1
		restoreSim += r.restoreSim
	}
	n := float64(len(rounds))
	l.put("engine.filter_spill_share", share(float64(eng.SpilledBytes), float64(eng.LogicalBytes)), "ratio")
	l.put("engine.filter_spilled_streams", float64(spilled)/n, "count")
	l.put("cindex.lookups_per_mb", perMB(eng.IndexLookups, eng.LogicalBytes), "1/MB")
	l.put("cindex.prefetches_per_mb", perMB(eng.MetaPrefetches, eng.LogicalBytes), "1/MB")
	l.put("cindex.cache_hit_share", share(float64(eng.CacheHits), float64(eng.CacheHits+eng.IndexLookups)), "ratio")
	l.put("core.rewrite_share", share(float64(eng.RewrittenBytes), float64(eng.RewrittenBytes+eng.DedupedBytes)), "ratio")
	l.put("core.unique_share", share(float64(eng.UniqueBytes), float64(eng.LogicalBytes)), "ratio")

	sealOps := ns(func(r *round) int64 { return r.be.sealOps.Load() })
	l.put("container.sealed", sealOps, "count")
	l.put("container.per_mb", share(sealOps*n, float64(eng.LogicalBytes)/1e6), "1/MB")
	l.put("container.utilization", per(func(r *round) float64 { return r.end.Utilization }), "ratio")
	for _, c := range []struct {
		name     string
		ops, dur func(*backendStats) int64
	}{
		{"seal", func(s *backendStats) int64 { return s.sealOps.Load() }, func(s *backendStats) int64 { return s.sealNS.Load() }},
		{"read", func(s *backendStats) int64 { return s.readOps.Load() }, func(s *backendStats) int64 { return s.readNS.Load() }},
		{"sync", func(s *backendStats) int64 { return s.syncOps.Load() }, func(s *backendStats) int64 { return s.syncNS.Load() }},
		{"drop", func(s *backendStats) int64 { return s.dropOps.Load() }, func(s *backendStats) int64 { return s.dropNS.Load() }},
	} {
		l.put("blockstore."+c.name+"_ops", ns(func(r *round) int64 { return c.ops(&r.be) }), "count")
		l.put("blockstore."+c.name+"_ns", ns(func(r *round) int64 { return c.dur(&r.be) }), "ns")
	}
	sealBytes := ns(func(r *round) int64 { return r.be.sealBytes.Load() })
	l.put("blockstore.seal_bytes", sealBytes, "bytes")
	l.put("blockstore.read_bytes", ns(func(r *round) int64 { return r.be.readBytes.Load() }), "bytes")
	l.put("blockstore.write_amp", share(sealBytes*n, float64(eng.LogicalBytes)), "ratio")

	l.put("disk.ingest_sim_s", ns(func(r *round) int64 { return int64(r.ingestSim) })/1e9, "s")
	l.put("disk.restore_sim_s", restoreSim.Seconds()/n, "s")
	l.put("disk.restore_eq1_s", eq1.Seconds()/n, "s")
	l.put("disk.restore_eq1_gap", share((restoreSim-eq1).Seconds(), restoreSim.Seconds()), "ratio")

	l.put("restore.container_reads_per_mb", perMB(rst.ContainerReads, rst.Bytes), "1/MB")
	l.put("restore.extent_reads_per_mb", perMB(rst.ExtentReads, rst.Bytes), "1/MB")
	l.put("restore.fragments_per_mb", perMB(int64(rst.Fragments), rst.Bytes), "1/MB")
	l.put("restore.cache_hit_share", share(float64(rst.CacheHits), float64(rst.CacheHits+rst.ContainerReads)), "ratio")
	l.put("restore.coalesced_share", share(float64(rst.CoalescedContainers), float64(rst.ContainerReads)), "ratio")
	l.put("restore.shared_cache_hit_share", share(
		sum(rounds, func(r *round) float64 { return float64(r.shared.Hits) }),
		sum(rounds, func(r *round) float64 { return float64(r.shared.Hits + r.shared.Misses) })), "ratio")
	l.put("restore.shared_cache_waits", ns(func(r *round) int64 { return int64(r.shared.Waits) }), "count")

	l.put("maintenance.epochs", ns(func(r *round) int64 { return int64(len(r.maintLat)) }), "count")
	moved := ns(func(r *round) int64 { return r.maint.BytesMoved })
	reclaimed := ns(func(r *round) int64 { return r.maint.BytesReclaimed })
	l.put("maintenance.bytes_moved", moved, "bytes")
	l.put("maintenance.bytes_reclaimed", reclaimed, "bytes")
	l.put("maintenance.refs_remapped", ns(func(r *round) int64 { return r.maint.RefsRemapped }), "count")
	l.put("maintenance.refs_rededuped", ns(func(r *round) int64 { return r.maint.RefsRededuped }), "count")
	l.put("maintenance.containers_merged", ns(func(r *round) int64 { return int64(r.maint.ContainersMerged) }), "count")
	l.put("maintenance.victims_skipped", ns(func(r *round) int64 { return int64(r.maint.VictimsSkipped) }), "count")
	l.put("maintenance.reclaim_per_moved", share(reclaimed, moved), "ratio")

	handler := ns(func(r *round) int64 { return r.handlerNS })
	client := ns(func(r *round) int64 { return r.clientNS })
	l.put("serve.handler_ns", handler, "ns")
	l.put("serve.client_ns", client, "ns")
	l.put("serve.transport_ns", client-handler, "ns")
	l.put("serve.rejected", ns(func(r *round) int64 { return r.rejected }), "count")

	var checks []float64
	for _, r := range rounds {
		for _, d := range r.checkWalls {
			checks = append(checks, float64(d))
		}
	}
	l.put("fsck.check_ns", median(checks), "ns")
	l.put("ingest_samples", float64(len(inLat)), "count")
	l.put("restore_samples", float64(len(outLat)), "count")

	// Tracing: self time per layer and the overhead of recording spans.
	rec := &recorder{}
	for _, r := range traced {
		rec.spans = append(rec.spans, r.rec.spans...)
	}
	self := rec.selfTimes()
	for _, layer := range []string{"client", "serve", "store", "blockstore", "blockstore.detached", "input", "output"} {
		l.put("self."+layer+"_ns", float64(self[layer])/float64(max(1, len(traced))), "ns")
	}
	l.put("trace.spans", float64(len(rec.spans))/float64(max(1, len(traced))), "count")
	over := func(f func(*round) float64) float64 {
		return 1 - share(med(traced, f), med(plain, f))
	}
	l.put("trace.overhead_ingest_share", over(ingestMBps), "ratio")
	l.put("trace.overhead_restore_share", over(restoreMBps), "ratio")
	if b.trace {
		writeSpans(b, rec)
	}
}

// writeSpans dumps the traced rounds' spans under .bench_build/traces.
func writeSpans(b *bench, rec *recorder) {
	dir := filepath.Join(b.root, ".bench_build", "traces")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = rec.writeJSONL(path, map[string]any{"workload": b.workload, "seed": b.seed,
			"written": time.Now().UTC().Format(time.RFC3339), "notes": b.notes})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	b.note("spans: %s (%d)", path, len(rec.spans))
}
