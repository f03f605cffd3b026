package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"repro/internal/chunk"
	"repro/internal/chunker"
)

// replayBudget bounds the bytes each standalone replay processes.
const replayBudget = 96 << 20

// replay runs the gear chunker (default parameters) and chunk.Of over the
// workload's own inputs, outside the store, and reports each layer's
// standalone speed. engine.bound_share is the measured ingest speed over
// the slower replay: how close ingest runs to its slowest layer's bound.
func replay(b *bench, ins []*input) error {
	var chunkNS, hashNS, bytesIn, chunks int64
	for _, in := range ins {
		if bytesIn >= replayBudget {
			break
		}
		ck, err := chunker.New(chunker.KindGear, bytes.NewReader(in.data), chunker.DefaultParams())
		if err != nil {
			return err
		}
		var cuts [][]byte
		t0 := time.Now()
		for {
			c, err := ck.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			// The chunker reuses its buffer; keep a copy for the hash replay.
			cuts = append(cuts, append([]byte(nil), c...))
		}
		chunkNS += int64(time.Since(t0))
		t0 = time.Now()
		for _, c := range cuts {
			_ = chunk.Of(c)
		}
		hashNS += int64(time.Since(t0))
		bytesIn += int64(len(in.data))
		chunks += int64(len(cuts))
	}
	chunkMBps := mbps(bytesIn, time.Duration(chunkNS))
	hashMBps := mbps(bytesIn, time.Duration(hashNS))
	b.layer.put("chunker.replay_mbps", chunkMBps, "MB/s")
	b.layer.put("chunk.hash_replay_mbps", hashMBps, "MB/s")
	b.layer.put("chunker.mean_chunk_bytes", share(float64(bytesIn), float64(chunks)), "bytes")
	b.layer.put("engine.bound_share", share(b.layer.m["ingest_mbps"].Value, min(chunkMBps, hashMBps)), "ratio")
	return nil
}
