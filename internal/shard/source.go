package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
)

// SourceConfig configures a RemoteSource. Plan and Addrs are required;
// everything else has serving-grade defaults.
type SourceConfig struct {
	// Plan is the cluster's manifest; Addrs[i] is the base URL of shard
	// i's daemon (e.g. "http://10.0.0.5:9090"), one per plan shard.
	Plan  *Plan
	Addrs []string
	// Client is the HTTP client for row RPCs and probes; nil gets a
	// client with a 10s overall timeout (per-query deadlines still come
	// from the request context).
	Client *http.Client
	// MaxRetries is how many times a failed shard fetch is retried after
	// the first attempt (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// retry (default 50ms).
	RetryBackoff time.Duration
	// ProbeInterval enables an active health prober hitting each shard's
	// /internal/health at this interval. 0 relies on passive marking
	// (fetch outcomes) only.
	ProbeInterval time.Duration
	// Reg receives shard.* metrics; nil keeps them detached.
	Reg *obs.Registry
}

const (
	defaultMaxRetries   = 2
	defaultRetryBackoff = 50 * time.Millisecond
)

// shardState is the frontend's view of one shard daemon.
type shardState struct {
	addr    string
	healthy atomic.Bool

	mu      sync.Mutex
	lastErr string

	errs *obs.Counter
	lat  *obs.Histogram
}

func (st *shardState) markOK() {
	st.healthy.Store(true)
	st.mu.Lock()
	st.lastErr = ""
	st.mu.Unlock()
}

func (st *shardState) markBad(msg string) {
	st.healthy.Store(false)
	st.mu.Lock()
	st.lastErr = msg
	st.mu.Unlock()
}

// RemoteSource is the frontend's distance-row source: it computes whole-
// graph rows with apsp's stitch kernel — Oracle.StitchRow, the code
// behind the monolith oracle's Row — on the plan's table-less oracle (see
// Plan), fanning the block-row fetches the kernel asks for out to the
// shard daemons that own them. The answers are byte-identical to the
// monolith's, or a typed error; never silently partial.
//
// It implements qe.RowSource, qe.CtxRowSource and qe.PairSource, so the
// engine stack applies unchanged: Batch stitches one row per distinct
// source into per-batch scratch, and a point Query fetches only the
// pair's own ≤ 2 block rows. A failed fan-out surfaces from either as an
// error wrapping ErrShardUnavailable or ErrEpochMismatch; the engine keeps
// no rows, so the next request fetches afresh.
type RemoteSource struct {
	plan       *Plan
	client     *http.Client
	maxRetries int
	backoff    time.Duration
	shards     []*shardState

	reqs     *obs.Counter
	retries  *obs.Counter
	errTotal *obs.Counter
	fetched  *obs.Counter
	stitched *obs.Counter
	pairs    *obs.Counter

	stop      chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// NewRemoteSource validates the config and builds the fan-out source,
// starting the active prober if configured. Close releases it.
func NewRemoteSource(cfg SourceConfig) (*RemoteSource, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("shard: remote source needs a plan")
	}
	if len(cfg.Addrs) != int(cfg.Plan.NumShards) {
		return nil, fmt.Errorf("shard: %d shard addresses for a %d-shard plan",
			len(cfg.Addrs), cfg.Plan.NumShards)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	s := &RemoteSource{
		plan:       cfg.Plan,
		client:     client,
		maxRetries: maxRetries,
		backoff:    backoff,
		reqs:       cfg.Reg.Counter("shard.rpc.requests"),
		retries:    cfg.Reg.Counter("shard.rpc.retries"),
		errTotal:   cfg.Reg.Counter("shard.rpc.errors"),
		fetched:    cfg.Reg.Counter("shard.rows.fetched"),
		stitched:   cfg.Reg.Counter("shard.rows.stitched"),
		pairs:      cfg.Reg.Counter("shard.pairs"),
		stop:       make(chan struct{}),
	}
	s.shards = make([]*shardState, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		sub := cfg.Reg.Sub(fmt.Sprintf("shard.%d.", i))
		st := &shardState{addr: addr, errs: sub.Counter("errors"), lat: sub.Histogram("rpc")}
		st.healthy.Store(true) // optimistic until a fetch or probe says otherwise
		s.shards[i] = st
	}
	if cfg.ProbeInterval > 0 {
		s.probeWG.Add(1)
		go s.probeLoop(cfg.ProbeInterval)
	}
	return s, nil
}

// Close stops the active prober, if any. Safe to call more than once.
func (s *RemoteSource) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	s.probeWG.Wait()
	return nil
}

// Plan returns the manifest the source routes by.
func (s *RemoteSource) Plan() *Plan { return s.plan }

// Epoch returns the plan epoch the source stitches under.
func (s *RemoteSource) Epoch() uint64 { return s.plan.Epoch }

// NumVertices returns the full graph's vertex count.
func (s *RemoteSource) NumVertices() int { return s.plan.NumVertices }

// RowCost is the kernel's row-cost estimate, the same one the monolith
// oracle reports; see apsp.Oracle.RowCost for why it is still here.
func (s *RemoteSource) RowCost(u int32) int64 { return s.plan.o.RowCost(u) }

// ShardStatus is one shard's serving state, as reported by /v1/cluster.
type ShardStatus struct {
	ID        int32  `json:"id"`
	Addr      string `json:"addr" doc:"shard daemon base URL"`
	Healthy   bool   `json:"healthy" doc:"from fetch outcomes and the active prober"`
	Blocks    int    `json:"blocks" doc:"blocks this shard owns"`
	LastError string `json:"last_error,omitempty" doc:"last failure observed against this shard; absent when healthy"`
}

// Status snapshots every shard's health for the cluster surface.
func (s *RemoteSource) Status() []ShardStatus {
	out := make([]ShardStatus, len(s.shards))
	for i, st := range s.shards {
		st.mu.Lock()
		lastErr := st.lastErr
		st.mu.Unlock()
		out[i] = ShardStatus{
			ID: int32(i), Addr: st.addr, Healthy: st.healthy.Load(),
			Blocks: s.plan.ShardBlockCount(int32(i)), LastError: lastErr,
		}
	}
	return out
}

// Row is the legacy RowSource surface: RowCtx with failures degraded to
// an all-Inf row (the engine always prefers RowCtx, which keeps the
// error; Row exists so RemoteSource satisfies interfaces that predate
// error-carrying sources).
func (s *RemoteSource) Row(u int32, out []graph.Weight) int64 {
	ops, err := s.RowCtx(context.Background(), u, out)
	if err != nil {
		out = out[:s.plan.NumVertices]
		for i := range out {
			out[i] = apsp.Inf
		}
	}
	return ops
}

// RowCtx computes the whole-graph distance row d_G(u, ·) into out,
// returning the stitch operation count. The row is apsp's stitch kernel
// run on the plan's oracle, with the needed block rows fanned out to
// their owning shards in parallel; on any shard failure it returns a
// typed error (wrapping ErrShardUnavailable or ErrEpochMismatch) and out
// is unspecified. An out-of-range u is a *apsp.QueryError wrapping
// apsp.ErrVertexRange, with out untouched.
func (s *RemoteSource) RowCtx(ctx context.Context, u int32, out []graph.Weight) (int64, error) {
	return s.plan.o.StitchRow(u, out, func(want []apsp.BlockWant, rows [][]graph.Weight) error {
		if err := s.fanOut(ctx, want, rows); err != nil {
			return err
		}
		s.stitched.Inc()
		return nil
	})
}

// Pair answers d_G(u, v) without building a row: apsp's pair kernel — the
// case analysis behind the monolith's Query — plans the pair on the
// plan's oracle, the ≤ 2 block rows it names (none for two articulation
// points, whose answer is the frontend-resident A alone) are fetched from
// their owning shards like any row's, and the kernel reads its entries out
// of them. Failures are typed exactly as RowCtx's; no distance is returned
// with an error.
func (s *RemoteSource) Pair(ctx context.Context, u, v int32) (graph.Weight, error) {
	o := s.plan.o
	p, err := o.PlanPair(u, v)
	if err != nil {
		return apsp.Inf, err
	}
	var d [2]graph.Weight
	if p.N > 0 {
		var want [2]apsp.BlockWant
		var rows [2][]graph.Weight
		for i, e := range p.Want[:p.N] {
			want[i] = apsp.BlockWant{Block: e.Block, Src: e.Src}
			rows[i] = make([]graph.Weight, len(o.BCT.BlockVerts[e.Block]))
		}
		if err := s.fanOut(ctx, want[:p.N], rows[:p.N]); err != nil {
			return apsp.Inf, err
		}
		for i, e := range p.Want[:p.N] {
			d[i] = o.EntryAt(e, rows[i])
		}
	}
	s.pairs.Inc()
	return p.Distance(d[0], d[1]), nil
}

// fanOut routes each wanted block row to the shard owning its block and
// fetches every shard's slice concurrently, copying the answers into
// rows; the first failure (typed) fails the caller. A row's want-list is
// ascending by block, so each shard's request order is deterministic.
func (s *RemoteSource) fanOut(ctx context.Context, want []apsp.BlockWant, rows [][]graph.Weight) error {
	perShard := make([][]int, len(s.shards)) // shard → indexes into want
	busy := 0
	for i, w := range want {
		sid := s.plan.BlockShard[w.Block]
		if perShard[sid] == nil {
			busy++
		}
		perShard[sid] = append(perShard[sid], i)
	}
	fetch := func(sid int, idx []int) error {
		reqs := make([][2]int32, len(idx))
		lens := make([]int, len(idx))
		for k, i := range idx {
			reqs[k] = [2]int32{want[i].Block, want[i].Src}
			lens[k] = len(rows[i])
		}
		got, err := s.fetchRows(ctx, int32(sid), reqs, lens)
		if err != nil {
			return err
		}
		for k, i := range idx {
			copy(rows[i], got[k])
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(perShard))
	for sid, idx := range perShard {
		if idx == nil {
			continue
		}
		if busy == 1 {
			return fetch(sid, idx) // no goroutine for a single-shard row
		}
		wg.Add(1)
		go func(sid int, idx []int) {
			defer wg.Done()
			errs[sid] = fetch(sid, idx)
		}(sid, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// noRetryError marks a failure retrying cannot fix (epoch skew, a shard
// rejecting the request as misrouted, a response larger than its request
// allows).
type noRetryError struct{ err error }

func (e *noRetryError) Error() string { return e.err.Error() }
func (e *noRetryError) Unwrap() error { return e.err }

// fetchRows fetches one shard's row batch with bounded retries and
// exponential backoff, marking the shard's health from the outcome. A
// final failure comes back as *Error wrapping ErrShardUnavailable (or
// ErrEpochMismatch for plan skew, which is never retried).
func (s *RemoteSource) fetchRows(ctx context.Context, sid int32, reqs [][2]int32, lens []int) ([][]graph.Weight, error) {
	st := s.shards[sid]
	body, err := json.Marshal(rowsRequest{Epoch: s.plan.Epoch, Rows: reqs})
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= s.maxRetries; attempt++ {
		if attempt > 0 {
			s.retries.Inc()
			t := time.NewTimer(s.backoff << (attempt - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		rows, err := s.doRPC(ctx, st, body, reqs, lens)
		if err == nil {
			st.markOK()
			s.fetched.Add(int64(len(reqs)))
			return rows, nil
		}
		lastErr = err
		s.errTotal.Inc()
		st.errs.Inc()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var nr *noRetryError
		if errors.As(err, &nr) || errors.Is(err, ErrEpochMismatch) {
			break
		}
	}
	st.markBad(lastErr.Error())
	if errors.Is(lastErr, ErrEpochMismatch) {
		return nil, &Error{Shard: sid, Addr: st.addr, Err: lastErr}
	}
	return nil, &Error{Shard: sid, Addr: st.addr,
		Err: fmt.Errorf("%w (%d attempts): %v", ErrShardUnavailable, s.maxRetries+1, lastErr)}
}

// doRPC performs one HTTP exchange with a shard and decodes/validates
// the response.
func (s *RemoteSource) doRPC(ctx context.Context, st *shardState, body []byte, reqs [][2]int32, lens []int) ([][]graph.Weight, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.addr+"/internal/rows", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	s.reqs.Inc()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	st.lat.Observe(time.Since(t0))
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode == http.StatusConflict {
			return nil, fmt.Errorf("%w: %s", ErrEpochMismatch, bytes.TrimSpace(snippet))
		}
		herr := fmt.Errorf("shard answered HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(snippet))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &noRetryError{herr}
		}
		return nil, herr
	}
	return decodeRowsResponse(resp.Body, s.plan.Epoch, reqs, lens)
}

// probeLoop is the active health prober: it hits every shard's
// /internal/health each interval and marks health from the reply
// (including the plan-epoch check, so a restarted shard serving a new
// plan shows unhealthy instead of poisoning queries).
func (s *RemoteSource) probeLoop(interval time.Duration) {
	defer s.probeWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for i := range s.shards {
				s.probeShard(int32(i))
			}
		}
	}
}

// healthBodyLimit bounds what a probe reads of a health reply: healthBody
// is a status word and four integers, and whatever answers at a shard
// address is not trusted to stop sending.
const healthBodyLimit = 4 << 10

func (s *RemoteSource) probeShard(i int32) {
	st := s.shards[i]
	resp, err := s.client.Get(st.addr + "/internal/health")
	if err != nil {
		st.markBad(err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.markBad(fmt.Sprintf("health probe answered HTTP %d", resp.StatusCode))
		return
	}
	var hb healthBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, healthBodyLimit)).Decode(&hb); err != nil {
		st.markBad("health probe: " + err.Error())
		return
	}
	switch {
	case hb.Epoch != s.plan.Epoch:
		st.markBad(fmt.Sprintf("shard serves plan epoch %d, frontend expects %d", hb.Epoch, s.plan.Epoch))
	case hb.Shard != i:
		st.markBad(fmt.Sprintf("address serves shard %d, expected %d", hb.Shard, i))
	default:
		st.markOK()
	}
}
