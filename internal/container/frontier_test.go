package container

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chunk"
)

// TestFrontierAndReservedWritersInterleave opens a reserve-mode container
// while the serial writer's frontier container is still open, then seals
// both. The reservation must land past the frontier container's full
// MetaCap+DataCap extent, the frontier container must seal in place, and
// the serial writer's next container must start past the reservation.
func TestFrontierAndReservedWritersInterleave(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	extent := cfg.MetaCap() + cfg.DataCap
	s, _ := newTestStore(t, true, cfg)
	sw := s.SerialWriter()
	rw := s.NewWriter(nil)

	type written struct {
		loc  chunk.Location
		data []byte
	}
	var all []written
	write := func(w *Writer, b byte, n int) {
		t.Helper()
		d := bytes.Repeat([]byte{b}, n)
		loc, err := w.Write(ctx, chunk.New(d), uint64(b))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, written{loc, d})
	}

	write(sw, 1, 100) // frontier container opens at the device frontier
	write(rw, 2, 200) // reservation while the frontier container is open
	write(sw, 3, 50)
	if err := sw.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	write(rw, 4, 70)
	if err := rw.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	write(sw, 5, 30) // next frontier container: past the reservation
	if err := sw.Finish(ctx); err != nil {
		t.Fatal(err)
	}

	front, res, next := s.info(all[0].loc.Container), s.info(all[1].loc.Container), s.info(all[4].loc.Container)
	if front.End != front.Start+extent {
		t.Fatalf("fenced frontier container [%d,%d), want full extent %d", front.Start, front.End, extent)
	}
	if res.Start != front.End || res.End != res.Start+extent {
		t.Fatalf("reserved container [%d,%d) must follow the frontier extent ending at %d", res.Start, res.End, front.End)
	}
	if next.Start != res.End {
		t.Fatalf("next frontier container starts at %d, want %d", next.Start, res.End)
	}
	if next.End != next.Start+cfg.MetaCap()+30 {
		t.Fatalf("unfenced frontier container must end at its fill: [%d,%d)", next.Start, next.End)
	}
	if got := s.Device().Size(); got != next.End {
		t.Fatalf("device frontier %d, want %d", got, next.End)
	}
	for i, wr := range all {
		got, err := s.ReadChunk(ctx, wr.loc)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, wr.data) {
			t.Fatalf("chunk %d: bytes differ", i)
		}
	}
}
