package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestBackupIngestStreamAndMaintenanceConcurrently runs a serial Backup
// (frontier-mode container writer), an IngestStream lane and a maintenance
// epoch (both reserve-mode writers) at the same time, round after round.
// A reservation taken while the serial writer's container is open must not
// break the serial seal; every backup must restore byte-for-byte and a
// verifying Check must come back clean.
func TestBackupIngestStreamAndMaintenanceConcurrently(t *testing.T) {
	ctx := context.Background()
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
		ExpectedBytes: 64 << 20, Maintenance: maintOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	newSched := func(seed int64) *workload.Single {
		wcfg := workload.DefaultConfig(seed)
		wcfg.NumFiles = 4
		wcfg.MeanFileSize = 512 << 10
		sched, err := workload.NewSingle(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	want := map[string][]byte{}
	next := func(sched *workload.Single, prefix string) (string, []byte) {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		label := prefix + "-" + b.Label
		want[label] = data
		return label, data
	}

	// The serial backup ingests fresh data every round, so its frontier
	// container is open for nearly the whole backup; the lane ingests
	// generations of one dataset, giving maintenance rewrites to merge.
	lane := newSched(90)
	for round := 0; round < 4; round++ {
		serialLabel, serialData := next(newSched(int64(100+round)), fmt.Sprintf("serial%d", round))
		laneLabel, laneData := next(lane, "lane")
		errs := make([]error, 3)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, errs[0] = s.Backup(ctx, serialLabel, bytes.NewReader(serialData))
		}()
		go func() {
			defer wg.Done()
			_, errs[1] = s.IngestStream(ctx, laneLabel, bytes.NewReader(laneData))
		}()
		go func() {
			defer wg.Done()
			_, errs[2] = s.MaintenanceEpoch(ctx)
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, op %d: %v", round, i, err)
			}
		}
	}

	backups := s.Backups()
	if len(backups) != len(want) {
		t.Fatalf("retained %d backups, want %d", len(backups), len(want))
	}
	for _, b := range backups {
		var out bytes.Buffer
		if _, err := s.Restore(ctx, b, &out, true); err != nil {
			t.Fatalf("restoring %s: %v", b.Label, err)
		}
		if !bytes.Equal(out.Bytes(), want[b.Label]) {
			t.Fatalf("backup %s restored different bytes", b.Label)
		}
	}
	rep, err := s.Check(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("Check(verify) found problems: %v", rep.Problems)
	}
}
