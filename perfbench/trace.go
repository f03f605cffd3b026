package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Root spans are
// the benchmark's Store and HTTP operations; their children are the
// backend-wrapper calls and the input/output calls made on their behalf.
// Input and output calls are aggregated into one span per root (Count calls
// covering Busy nanoseconds between the first start and the last end), so
// a restore writing thousands of chunks records one output span, not
// thousands.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Cause is the root in flight when a detached span started; it is not
	// charged to that root.
	Cause    uint64 `json:"cause,omitempty"`
	Req      uint64 `json:"req,omitempty"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Count    int64  `json:"count"`
	Busy     int64  `json:"busy_ns"`
	Detached bool   `json:"detached,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	if s.Count == 0 {
		s.Count = 1
	}
	if s.Busy == 0 {
		s.Busy = s.End - s.Start
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type spanKey struct{}

// spanRef identifies the span a call is made on behalf of.
type spanRef struct{ id, req uint64 }

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// op is an open root (or handler) span.
type op struct {
	r     *recorder
	ref   spanRef
	name  string
	layer string
	start time.Time
}

// startOp opens a span whose parent is named when it ends. With a nil
// recorder it returns ctx unchanged and a nil op.
func (r *recorder) startOp(ctx context.Context, name, layer string, req uint64) (context.Context, *op) {
	if r == nil {
		return ctx, nil
	}
	o := &op{r: r, ref: spanRef{id: r.newID(), req: req}, name: name, layer: layer, start: time.Now()}
	return withSpan(ctx, o.ref), o
}

// end closes the span, attaching the aggregated input/output children.
func (o *op) end(parent uint64, ios ...*ioCounter) {
	if o == nil {
		return
	}
	end := time.Now()
	o.r.add(span{ID: o.ref.id, Parent: parent, Req: o.ref.req, Name: o.name, Layer: o.layer,
		Start: o.r.since(o.start), End: o.r.since(end)})
	for _, c := range ios {
		if c == nil || c.calls == 0 {
			continue
		}
		o.r.add(span{ID: o.r.newID(), Parent: o.ref.id, Req: o.ref.req, Name: c.layer, Layer: c.layer,
			Start: o.r.since(c.first), End: o.r.since(c.last), Count: c.calls, Busy: c.ns})
	}
}

// selfTimes returns each layer's self time: a span's busy time (its
// duration, for a single call) minus the part of its interval its children
// cover. Single-call children are merged as intervals before subtracting;
// aggregated input/output children subtract their busy time. Detached
// spans (async container seals) count whole, under "<layer>.detached".
func (r *recorder) selfTimes() map[string]int64 {
	kids := make(map[uint64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range r.spans {
		var ivs [][2]int64
		var busy int64
		for _, k := range kids[s.ID] {
			if k.Count > 1 {
				busy += k.Busy
				continue
			}
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self := s.Busy - union(ivs) - busy
		if self < 0 {
			self = 0
		}
		layer := s.Layer
		if s.Detached {
			layer += ".detached"
		}
		out[layer] += self
	}
	return out
}

// union returns the total length covered by the intervals.
func union(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeJSONL writes a header line and every span, one JSON object a line.
func (r *recorder) writeJSONL(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
