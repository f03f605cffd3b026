package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"testing"

	"repro"
	"repro/internal/blockstore"
	"repro/internal/workload"
)

// TestMaintenanceThroughTimedBackend runs maintenance epochs that must
// merge and drop containers on a file store opened behind the timing
// wrapper: container.Store.Drop type-asserts blockstore.Dropper, so a
// wrapper that failed to forward it would fail the epoch with ErrNoDrop.
func TestMaintenanceThroughTimedBackend(t *testing.T) {
	ctx := context.Background()
	var st backendStats
	opts := repro.Options{Engine: repro.DeFrag, Alpha: 0.3, Backend: repro.FileBackend, Dir: t.TempDir(),
		StoreData: true, ExpectedBytes: 64 << 20, WrapBackend: wrapBackend(&st, newRecorder()),
		// Aggressive thresholds, so epochs merge on a small store.
		Maintenance: repro.MaintenanceOptions{UtilThreshold: 0.9, FillThreshold: 0.9, SparseThreshold: 0.5, MaxBatch: 64}}
	s, err := repro.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sched, err := workload.NewScenario(workload.ScenarioBackup, workload.ScenarioParams{Seed: 7, Users: 2, BytesPerStream: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := generate(sched, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if _, err := s.Backup(ctx, in.label, bytes.NewReader(in.data)); err != nil {
			t.Fatal(err)
		}
	}
	var merged int
	for i := 0; i < 3; i++ {
		ms, err := s.MaintenanceEpoch(ctx)
		if err != nil {
			t.Fatalf("maintenance epoch %d: %v", i, err)
		}
		merged += ms.ContainersMerged
	}
	if merged == 0 || st.dropOps.Load() == 0 {
		t.Fatalf("maintenance merged %d containers with %d drops; want both > 0", merged, st.dropOps.Load())
	}
	if st.sealOps.Load() == 0 || st.sealBytes.Load() == 0 {
		t.Fatalf("seals not counted: %d ops, %d bytes", st.sealOps.Load(), st.sealBytes.Load())
	}
	for _, in := range ins {
		h := sha256.New()
		if _, err := s.Restore(ctx, s.FindBackup(in.label), h, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.Sum(nil), in.sum[:]) {
			t.Fatalf("restore %s after maintenance differs from the input", in.label)
		}
	}
	rep, err := s.Check(ctx, true)
	if err != nil || !rep.OK() {
		t.Fatalf("check after maintenance: %v %v", err, rep.Problems)
	}
}

// TestTimedBackendForwardsOptionalInterfaces checks Drop and Quarantine
// reach a backend that implements them and report the sentinel errors
// for one that does not.
func TestTimedBackendForwardsOptionalInterfaces(t *testing.T) {
	ctx := context.Background()
	var st backendStats
	plain := &timedBackend{be: bareBackend{}, st: &st}
	if err := plain.Drop(ctx, []uint32{1}, "test"); !errors.Is(err, blockstore.ErrNoDrop) {
		t.Fatalf("Drop on a backend without it: %v, want ErrNoDrop", err)
	}
	if err := plain.Quarantine(ctx, 1, "test"); !errors.Is(err, blockstore.ErrNoQuarantine) {
		t.Fatalf("Quarantine on a backend without it: %v, want ErrNoQuarantine", err)
	}
	full := &timedBackend{be: &optionalBackend{}, st: &st}
	if err := full.Drop(ctx, []uint32{1, 2}, "test"); err != nil {
		t.Fatal(err)
	}
	if err := full.Quarantine(ctx, 3, "test"); err != nil {
		t.Fatal(err)
	}
	ob := full.be.(*optionalBackend)
	if ob.dropped != 2 || ob.quarantined != 1 || st.dropOps.Load() != 1 {
		t.Fatalf("forwarded %d drops, %d quarantines, counted %d drop calls", ob.dropped, ob.quarantined, st.dropOps.Load())
	}
}

// bareBackend implements only blockstore.Backend.
type bareBackend struct{}

func (bareBackend) Name() string     { return "bare" }
func (bareBackend) StoresData() bool { return false }
func (bareBackend) Seal(context.Context, blockstore.ContainerInfo, []byte) error {
	return nil
}
func (bareBackend) ReadData(context.Context, uint32) ([]byte, error) { return nil, nil }
func (bareBackend) ReadDataRange(context.Context, []uint32) ([][]byte, error) {
	return nil, nil
}
func (bareBackend) List(context.Context) ([]blockstore.ContainerInfo, error) { return nil, nil }
func (bareBackend) Sync(context.Context) error                               { return nil }
func (bareBackend) Close() error                                             { return nil }

// optionalBackend adds Dropper and Quarantiner.
type optionalBackend struct {
	bareBackend
	dropped, quarantined int
}

func (o *optionalBackend) Drop(_ context.Context, ids []uint32, _ string) error {
	o.dropped += len(ids)
	return nil
}

func (o *optionalBackend) Quarantine(context.Context, uint32, string) error {
	o.quarantined++
	return nil
}
