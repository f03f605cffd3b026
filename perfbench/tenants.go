package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Shape of tenants-http: small workspace uploads from 8 tenants, sent by
// 2 closed-loop clients (an agent waits for each acknowledgement before it
// sends the next upload).
const (
	tenantCount     = 8
	tenantClients   = 2
	tenantUploads   = 1500     // uploads per session, unless the run's seconds end it first
	tenantMaintN    = 100      // requests between POST /v1/maintenance
	tenantCacheMiB  = 64       // the service's shared restore cache
	tenantRecheckN  = 64       // acknowledged labels restored again after the reopen
	tenantPerUpload = 64 << 10 // approximate upload size, for sizing the store
	tenantSetups    = 3        // set-ups timed per run; setup_s is their median
)

// workspaceInputs generates n uploads of the workspace scenario: each is
// one tenant's single-workspace tree (4 packages, 2 sources), so uploads
// are small and shared packages dedup across tenants.
func workspaceInputs(seed int64, n int) ([]*input, error) {
	ws, err := workload.NewWorkspace(workload.WorkspaceConfig{
		Seed: seed, Tenants: tenantCount, WorkspacesPerTenant: 1, PackagePool: 256, PackagesPerWorkspace: 12,
		MeanPackageSize: 2 << 10, SrcFilesPerWorkspace: 12, MeanSrcFileSize: 1 << 10,
	})
	if err != nil {
		return nil, err
	}
	ins, err := generate(ws, n)
	for _, in := range ins {
		in.tenant = fmt.Sprintf("t%d", in.user)
	}
	return ins, err
}

// runTenantsHTTP runs one closed-loop session of tenantUploads uploads, cut
// short if the run's seconds end first (two sessions of half the uploads
// and seconds, untraced then traced, in a traced run), each over a fresh
// store served by serve.New on a loopback listener. A fixed upload count
// gives every run a store of the same size to reopen and maintain.
func runTenantsHTTP(ctx context.Context, b *bench) error {
	opts := repro.Options{Alpha: 0.1, ExpectedBytes: 2 * tenantUploads * tenantPerUpload,
		RestoreCacheBytes: tenantCacheMiB << 20}
	ins, setups, err := setUp(b, func() ([]*input, error) { return workspaceInputs(b.seed, tenantUploads) }, opts)
	if err != nil {
		return err
	}
	sessions := 1
	if b.trace {
		sessions = 2
	}
	var rounds []*round
	for i := 0; i < sessions; i++ {
		r, err := b.newRound(i, i == 1)
		if err != nil {
			return err
		}
		r.detail = false // concurrent: counts are not expected to repeat
		err = runSession(ctx, r, ins[:len(ins)/sessions], opts, b.seconds/time.Duration(sessions))
		r.close()
		if !b.op(err) {
			break
		}
		rounds = append(rounds, r)
	}
	if len(rounds) == 0 {
		return errors.New("no session completed")
	}
	report(b, rounds, setups)
	if b.trace {
		return replay(b, ins)
	}
	return nil
}

// setUp generates the uploads and opens an empty store tenantSetups times,
// returning the first inputs and every set-up's seconds. Every repeat must
// generate the same bytes.
func setUp(b *bench, gen func() ([]*input, error), opts repro.Options) ([]*input, []float64, error) {
	var first []*input
	var secs []float64
	for i := 0; i < tenantSetups; i++ {
		r, err := b.newRound(-1-i, false)
		if err != nil {
			return nil, nil, err
		}
		sw := startStopwatch()
		ins, err := gen()
		if err == nil {
			err = r.open(opts)
		}
		if err != nil {
			return nil, nil, err
		}
		wall, served := sw.elapsed()
		secs = append(secs, wall.Seconds()*served)
		r.close()
		if first == nil {
			first = ins
			continue
		}
		same := len(ins) == len(first)
		for j := 0; same && j < len(ins); j++ {
			same = ins[j].sum == first[j].sum && ins[j].label == first[j].label
		}
		b.check(same, "set-up %d generated different inputs than set-up 0", i)
	}
	return first, secs, nil
}

// session is the shared state of one closed-loop run.
type session struct {
	r      *round
	ins    []*input
	base   string
	client *http.Client
	end    time.Time

	next atomic.Int64 // next upload to send
	reqs atomic.Int64 // requests sent, for the maintenance interval
	ids  atomic.Uint64

	mu    sync.Mutex // guards acked, done and every round field the clients update
	acked []*input
	done  []completion
}

// completion is one acknowledged upload or verified restore.
type completion struct {
	at      time.Time
	bytes   int64
	restore bool
}

// windowRates returns the MB/s of uploads and of restores completed in
// each whole second of the session. A run reports their medians, so a
// stall of a second or two on a shared host does not move the figure.
func (s *session) windowRates(t0 time.Time, wall time.Duration) (in, out []float64) {
	n := int(wall / time.Second)
	in, out = make([]float64, n), make([]float64, n)
	for _, c := range s.done {
		w := int(c.at.Sub(t0) / time.Second)
		if w >= n {
			continue
		}
		if c.restore {
			out[w] += float64(c.bytes) / 1e6
		} else {
			in[w] += float64(c.bytes) / 1e6
		}
	}
	return in, out
}

func runSession(ctx context.Context, r *round, ins []*input, opts repro.Options, d time.Duration) error {
	if err := r.open(opts); err != nil {
		return err
	}
	srv := serve.New(serve.Config{Store: r.st})
	th := &timedHandler{h: srv, rec: r.rec}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := startHeapSampler()
	hsrv := &http.Server{Handler: th}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hsrv.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: tenantClients, DisableCompression: true}
	s := &session{r: r, ins: ins, base: "http://" + ln.Addr().String(), client: &http.Client{Transport: tr}}

	sw := startStopwatch()
	t0 := sw.t0
	s.end = t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < tenantClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.clientLoop(ctx, rand.New(rand.NewSource(r.b.seed*131+int64(c))))
		}(c)
	}
	wg.Wait()
	wall, served := sw.elapsed()
	r.served, r.ingestWall, r.restoreWall = served, wall, wall
	r.winIngest, r.winRestore = s.windowRates(t0, wall)
	r.b.note("session %d: %d uploads acknowledged in %.2fs", r.idx, len(s.acked), wall.Seconds())

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	r.b.op(srv.Shutdown(sctx))
	r.b.op(hsrv.Shutdown(sctx))
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		r.b.op(fmt.Errorf("serve: %w", err))
	}
	tr.CloseIdleConnections()
	r.heapPeak = hs.end()
	r.handlerNS = th.ns.Load()
	r.storeNS["ingest"] += th.ingestNS.Load()
	r.storeNS["restore"] += th.restoreNS.Load()
	r.storeNS["maint"] += th.maintNS.Load()
	r.finish()

	// Durability: reopen, check, and restore acknowledged labels again
	// straight from the store. These restores also give the simulated
	// restore speed, which the HTTP path does not report.
	if err := r.reopen(opts); err != nil {
		return err
	}
	r.checkStore(ctx)
	rng := rand.New(rand.NewSource(r.b.seed))
	for i := 0; i < tenantRecheckN && len(s.acked) > 0; i++ {
		r.restore(ctx, s.acked[rng.Intn(len(s.acked))], false, true)
	}
	return nil
}

// clientLoop alternates an upload with a verified restore of an
// acknowledged label until the session ends or the inputs run out, and
// sends a maintenance request every tenantMaintN requests.
func (s *session) clientLoop(ctx context.Context, rng *rand.Rand) {
	for time.Now().Before(s.end) {
		i := s.next.Add(1) - 1
		if i >= int64(len(s.ins)) {
			return
		}
		s.upload(ctx, s.ins[i])
		s.mu.Lock()
		var in *input
		if len(s.acked) > 0 {
			in = s.acked[rng.Intn(len(s.acked))]
		}
		s.mu.Unlock()
		if in != nil {
			s.download(ctx, in)
		}
		if n := s.reqs.Add(2); n%tenantMaintN < 2 {
			s.maintain(ctx)
		}
	}
}

// do sends one request as a client span and returns the response with the
// body read into w (or into a buffer when w is nil).
func (s *session) do(ctx context.Context, method, path, tenant string, body []byte, w io.Writer) (int, []byte, time.Duration, error) {
	req := s.ids.Add(1)
	ctx, o := s.r.rec.startOp(ctx, "client."+method, "client", req)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	hreq.Header.Set("X-Tenant", tenant)
	hreq.Header.Set(hdrReq, strconv.FormatUint(req, 10))
	if o != nil {
		hreq.Header.Set(hdrSpan, strconv.FormatUint(o.ref.id, 10))
	}
	t0 := time.Now()
	resp, err := s.client.Do(hreq)
	var buf bytes.Buffer
	if err == nil {
		if w == nil || resp.StatusCode/100 != 2 {
			w = &buf
		}
		_, err = io.Copy(w, resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	o.end(0)
	s.mu.Lock()
	s.r.clientNS += int64(d)
	s.mu.Unlock()
	if err != nil {
		return 0, nil, d, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		s.mu.Lock()
		s.r.rejected++
		s.mu.Unlock()
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil, d, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, buf.String())
	}
	return resp.StatusCode, buf.Bytes(), d, nil
}

// upload POSTs one input; a 201 with the right logical size acknowledges it.
func (s *session) upload(ctx context.Context, in *input) {
	code, body, d, err := s.do(ctx, http.MethodPost, "/v1/backups/"+in.label, in.tenant, in.data, nil)
	var info serve.BackupInfo
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("upload %s: status %d, want 201", in.label, code)
	}
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	if err == nil && info.Stats.LogicalBytes != int64(len(in.data)) {
		err = fmt.Errorf("upload %s: %d logical bytes acknowledged, sent %d", in.label, info.Stats.LogicalBytes, len(in.data))
	}
	if !s.r.b.op(err) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acked = append(s.acked, in)
	s.done = append(s.done, completion{at: time.Now(), bytes: info.Stats.LogicalBytes})
	s.r.ingested(info.Stats, d)
}

// download restores one acknowledged label with verify=1 and compares the
// body's SHA-256 with the input's.
func (s *session) download(ctx context.Context, in *input) {
	h := sha256.New()
	n := &countWriter{w: h}
	_, _, d, err := s.do(ctx, http.MethodGet, "/v1/backups/"+in.label+"/restore?verify=1", in.tenant, nil, n)
	if err == nil && !bytes.Equal(h.Sum(nil), in.sum[:]) {
		err = fmt.Errorf("restore %s: SHA-256 differs from the input (%d bytes)", in.label, n.n)
	}
	if !s.r.b.op(err) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = append(s.done, completion{at: time.Now(), bytes: n.n, restore: true})
	s.r.restoreBytes += n.n
	s.r.restoreLat = append(s.r.restoreLat, d)
}

// maintain runs one maintenance epoch through the service.
func (s *session) maintain(ctx context.Context) {
	_, body, d, err := s.do(ctx, http.MethodPost, "/v1/maintenance", "admin", nil, nil)
	var ms repro.MaintenanceStats
	if err == nil {
		err = json.Unmarshal(body, &ms)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.maintWall += d
	s.r.maintLat = append(s.r.maintLat, d)
	if s.r.b.op(err) {
		s.r.addMaint(ms)
	}
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
