package repro

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestSmallBackupsPayNoIndexWriteBack ingests back-to-back small DeFrag
// backups. Their index inserts stay in the shard buffers (no write-back is
// charged to any backup), and every backup's dedup decisions and counters
// match a twin store that flushes the index after each backup.
func TestSmallBackupsPayNoIndexWriteBack(t *testing.T) {
	ctx := context.Background()
	open := func() *Store {
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	lazy, flushed := open(), open()
	wcfg := workload.DefaultConfig(5)
	wcfg.NumFiles = 4
	wcfg.MeanFileSize = 128 << 10
	schedA, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	schedB, _ := workload.NewSingle(wcfg)
	for g := 0; g < 6; g++ {
		a, b := schedA.Next(), schedB.Next()
		ba, err := lazy.Backup(ctx, a.Label, a.Stream)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := flushed.Backup(ctx, b.Label, b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		flushed.eng.(indexed).Index().Flush()

		sa, sb := ba.Stats, bb.Stats
		if sa.Duration > sb.Duration {
			t.Fatalf("gen %d: %v slower than the flushing twin's %v", g, sa.Duration, sb.Duration)
		}
		sa.Duration, sb.Duration = 0, 0
		if sa != sb {
			t.Fatalf("gen %d: stats diverged from the flushing twin:\n  %+v\n  %+v", g, sa, sb)
		}
	}
	if st := lazy.eng.(indexed).Index().Stats(); st.Flushes != 0 || st.Inserts == 0 {
		t.Fatalf("index stats %+v: want inserts and no write-back", st)
	}
	if st := flushed.eng.(indexed).Index().Stats(); st.Flushes == 0 {
		t.Fatal("the twin's explicit flushes wrote nothing back")
	}
}
