package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/faultinject"
	"icost/internal/fleet"
)

// TenantHeader names the admission tenant on incoming requests; absent
// means the "default" tenant.
const TenantHeader = "X-Icost-Tenant"

// maxQueryBytes bounds one routed /query body, matching the shard's
// own decode limit so the router never accepts what a shard would
// refuse.
const maxQueryBytes = 1 << 20

// maxIngestBytes mirrors the shard-side /ingest body bound.
const maxIngestBytes = 1 << 28

// maxSnapshotBytes bounds one pulled replication snapshot.
const maxSnapshotBytes = 1 << 30

// Config configures a Router. Zero fields take defaults.
type Config struct {
	// Backends are the shard base URLs ("http://host:port"). At least
	// one is required.
	Backends []string
	// Replicas is the target number of shards holding a hot session's
	// snapshot, primary included (default 2; clamped to the live
	// backend count).
	Replicas int
	// HedgeAfter is how long a replicated session's read waits on the
	// primary before a hedge fires at a replica; <= 0 disables
	// hedging.
	HedgeAfter time.Duration
	// HotThreshold is the routed-query count at which a session is
	// declared hot and queued for replication (default 3).
	HotThreshold int
	// VNodes and LoadFactor size the ring (see RingConfig).
	VNodes     int
	LoadFactor float64
	// TenantRate and TenantBurst set the per-tenant admission quota in
	// requests/s; TenantRate <= 0 disables the quota layer.
	TenantRate  float64
	TenantBurst int
	// Client is the HTTP client used for all backend traffic. Nil gets
	// one that keeps backendIdleConns idle connections per backend and
	// bounds each exchange by backendTimeout.
	Client *http.Client
}

// backendIdleConns is how many idle connections the default client
// keeps to each backend, twice the standard library's default, so
// concurrent forwards reuse connections instead of dialing anew.
const backendIdleConns = 4

// backendTimeout bounds one backend exchange under the default client,
// a cold session build included.
const backendTimeout = 2 * time.Minute

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: backendIdleConns},
			Timeout:   backendTimeout,
		}
	}
	return c
}

// replJob asks the replication worker to copy one hot session from
// the shard that just served it to the rest of its replica set.
type replJob struct {
	key  string // engine session key
	from string // backend URL holding a built copy
}

// Router fronts a set of icostd shards: it consistent-hashes
// session and fleet keys across them, replicates hot sessions,
// hedges replicated reads, and admits tenants under quota. One
// Router instance is one routing tier process.
type Router struct {
	cfg     Config
	ring    *Ring
	quota   *quotas
	client  *http.Client
	metrics metrics

	mu  sync.Mutex
	hot map[string]int // session key -> routed queries
	// homes maps session key -> backend URL -> install generation of
	// the copy known to live there (0 = present, generation unseen).
	// A session with >= 2 live homes is hedgeable.
	homes   map[string]map[string]uint64
	pending map[string]bool // replication queued or in flight

	replCh    chan replJob
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a router over the configured backends. The replication
// worker runs until ctx is done or Close is called.
func New(ctx context.Context, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(RingConfig{VNodes: cfg.VNodes, LoadFactor: cfg.LoadFactor}, cfg.Backends...),
		quota:   newQuotas(cfg.TenantRate, cfg.TenantBurst),
		client:  cfg.Client,
		hot:     map[string]int{},
		homes:   map[string]map[string]uint64{},
		pending: map[string]bool{},
		replCh:  make(chan replJob, 64),
		done:    make(chan struct{}),
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-rt.done:
				return
			case job := <-rt.replCh:
				rt.replicate(ctx, job)
			}
		}
	}()
	return rt, nil
}

// Close stops the replication worker and waits for it.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// Handler returns the router's HTTP surface. It mirrors the shard
// surface (/query, /ingest, /metrics, /healthz, /readyz) so clients
// talk to a cluster exactly as they would to one daemon.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", rt.handleQuery)
	mux.HandleFunc("/ingest", rt.handleIngest)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		daemon.JSON(w, http.StatusOK, rt.Metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		daemon.JSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"backends": rt.ring.Backends(),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if rt.ring.Len() == 0 {
			daemon.JSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no backends"})
			return
		}
		daemon.JSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	return mux
}

// admit runs the per-tenant quota; it writes the 429 itself and
// reports false when the request must not proceed.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) bool {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "default"
	}
	ok, wait := rt.quota.allow(tenant, time.Now())
	if ok {
		return true
	}
	rt.metrics.quotaRejects.Add(1)
	secs := int(wait.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	daemon.Error(w, http.StatusTooManyRequests,
		fmt.Sprintf("router: tenant %q over admission quota", tenant))
	return false
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		daemon.Error(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !rt.admit(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, "reading query body: "+err.Error())
		return
	}
	// Decode only what routing needs; the shard re-validates in full.
	var q struct {
		engine.Query
		Fleet *fleet.Query `json:"fleet,omitempty"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		daemon.Error(w, http.StatusBadRequest, "bad query JSON: "+err.Error())
		return
	}
	if q.Fleet != nil {
		// Fleet aggregates are stateful merges: exactly one shard owns
		// each key, so queries use the same pure placement as ingest.
		rt.forwardSingleHomed(w, r, fleetRouteKey(q.Fleet.Key()), "/query", body, "application/json", &rt.metrics.queriesRouted)
		return
	}
	sessKey, err := q.Session.Key()
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.handleSessionQuery(w, r, sessKey, body)
}

// sessionRouteKey and fleetRouteKey namespace the two key families on
// the ring so a session hash can never collide with a fleet key.
func sessionRouteKey(sessKey string) string { return "session|" + sessKey }

func fleetRouteKey(k fleet.Key) string { return "fleet|" + k.String() }

func (rt *Router) handleSessionQuery(w http.ResponseWriter, r *http.Request, sessKey string, body []byte) {
	// Replicated sessions read hedged; everything else takes the
	// bounded-load ring walk. Builds are deterministic, so a
	// bounded-load spill past the primary costs a duplicate build,
	// never a wrong answer.
	if homes := rt.aliveHomes(sessKey); rt.cfg.HedgeAfter > 0 && len(homes) >= 2 {
		if rt.hedgedQuery(w, r, homes, body, sessKey) {
			return
		}
		// Every home failed; fall through to the ring, which has
		// already dropped the dead backends.
	}
	backend, release := rt.ring.Acquire(sessionRouteKey(sessKey))
	if backend == "" {
		daemon.Error(w, http.StatusServiceUnavailable, "router: no live backends")
		return
	}
	resp, err := rt.forwardOnce(r.Context(), backend, "/query", body, "application/json")
	release()
	if err != nil {
		if r.Context().Err() != nil {
			daemon.Error(w, 499, "router: client gone: "+err.Error())
			return
		}
		rt.backendFailed(backend)
		// The ring just shrank; one retry lands the key on its new
		// owner. This is the write-path re-route after a kill.
		rt.metrics.retries.Add(1)
		b2, rel2 := rt.ring.Acquire(sessionRouteKey(sessKey))
		if b2 == "" {
			daemon.Error(w, http.StatusBadGateway, "router: no live backends after failure")
			return
		}
		resp, err = rt.forwardOnce(r.Context(), b2, "/query", body, "application/json")
		rel2()
		if err != nil {
			if r.Context().Err() == nil {
				rt.backendFailed(b2)
			}
			daemon.Error(w, http.StatusBadGateway, "router: backend unreachable: "+err.Error())
			return
		}
		backend = b2
	}
	rt.metrics.queriesRouted.Add(1)
	rt.relay(w, resp)
	if resp.StatusCode == http.StatusOK {
		rt.noteServed(sessKey, backend)
	}
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		daemon.Error(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !rt.admit(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, "reading ingest body: "+err.Error())
		return
	}
	// Peek the stream header for the aggregate key without decoding
	// the sample payload — routing is O(header), not O(stream).
	h, err := fleet.PeekHeader(bytes.NewReader(body))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, "bad ingest stream: "+err.Error())
		return
	}
	rt.forwardSingleHomed(w, r, fleetRouteKey(h.Key()), "/ingest", body, "application/octet-stream", &rt.metrics.ingestRouted)
}

// forwardSingleHomed proxies a request whose key must stay on exactly
// one shard (fleet state). On a transport failure it evicts the dead
// backend and retries once against the key's new owner.
func (rt *Router) forwardSingleHomed(w http.ResponseWriter, r *http.Request, routeKey, path string, body []byte, contentType string, counter *atomic.Int64) {
	backend := rt.ring.Lookup(routeKey)
	if backend == "" {
		daemon.Error(w, http.StatusServiceUnavailable, "router: no live backends")
		return
	}
	resp, err := rt.forwardOnce(r.Context(), backend, path, body, contentType)
	if err != nil {
		if r.Context().Err() != nil {
			daemon.Error(w, 499, "router: client gone: "+err.Error())
			return
		}
		rt.backendFailed(backend)
		rt.metrics.retries.Add(1)
		b2 := rt.ring.Lookup(routeKey)
		if b2 == "" {
			daemon.Error(w, http.StatusBadGateway, "router: no live backends after failure")
			return
		}
		resp, err = rt.forwardOnce(r.Context(), b2, path, body, contentType)
		if err != nil {
			if r.Context().Err() == nil {
				rt.backendFailed(b2)
			}
			daemon.Error(w, http.StatusBadGateway, "router: backend unreachable: "+err.Error())
			return
		}
	}
	counter.Add(1)
	rt.relay(w, resp)
}

// forwardOnce sends one proxied request. The faultinject hook fires
// before the wire so chaos drills can slow or fail individual
// forwards deterministically.
func (rt *Router) forwardOnce(ctx context.Context, backend, path string, body []byte, contentType string) (*http.Response, error) {
	if err := faultinject.Hit(ctx, faultinject.RouterForward); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, backend+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return rt.client.Do(req)
}

// relay copies a backend response to the client verbatim — status,
// typed-error headers (Retry-After), and body — so the cluster's
// error contract is exactly the single-daemon contract.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", daemon.GenerationHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// backendFailed marks a backend dead after a transport-level failure:
// it leaves the ring (keys fall to successors) and every replica
// record pointing at it is dropped.
func (rt *Router) backendFailed(backend string) {
	rt.metrics.backendErrors.Add(1)
	if !rt.ring.Remove(backend) {
		return
	}
	rt.metrics.backendsRemoved.Add(1)
	rt.mu.Lock()
	for key, hs := range rt.homes {
		delete(hs, backend)
		if len(hs) == 0 {
			delete(rt.homes, key)
		}
	}
	rt.mu.Unlock()
}

// aliveHomes returns the backends known to hold a built copy of the
// session, intersected with the live ring, replica-placement order
// first (primary leads, so hedges fire at true replicas).
func (rt *Router) aliveHomes(sessKey string) []string {
	live := map[string]bool{}
	for _, b := range rt.ring.Backends() {
		live[b] = true
	}
	rt.mu.Lock()
	hs := rt.homes[sessKey]
	known := make(map[string]bool, len(hs))
	for b := range hs {
		if live[b] {
			known[b] = true
		}
	}
	rt.mu.Unlock()
	if len(known) == 0 {
		return nil
	}
	out := make([]string, 0, len(known))
	for _, b := range rt.ring.LookupN(sessionRouteKey(sessKey), rt.cfg.Replicas) {
		if known[b] {
			out = append(out, b)
			delete(known, b)
		}
	}
	for b := range known {
		out = append(out, b)
	}
	return out
}

// noteServed records a successful session query: the serving backend
// becomes a known home, and crossing the hot threshold queues the
// session for replication (at most one job in flight per session).
func (rt *Router) noteServed(sessKey, backend string) {
	target := rt.cfg.Replicas
	if n := rt.ring.Len(); target > n {
		target = n
	}
	rt.mu.Lock()
	if rt.homes[sessKey] == nil {
		rt.homes[sessKey] = map[string]uint64{}
	}
	if _, ok := rt.homes[sessKey][backend]; !ok {
		rt.homes[sessKey][backend] = 0
	}
	rt.hot[sessKey]++
	need := rt.hot[sessKey] >= rt.cfg.HotThreshold &&
		len(rt.homes[sessKey]) < target && !rt.pending[sessKey]
	if need {
		rt.pending[sessKey] = true
	}
	rt.mu.Unlock()
	if !need {
		return
	}
	select {
	case rt.replCh <- replJob{key: sessKey, from: backend}:
	default:
		// Queue full: drop the job and let the next hot query re-queue.
		rt.mu.Lock()
		delete(rt.pending, sessKey)
		rt.mu.Unlock()
	}
}

// replicate copies one hot session: pull the ICSS snapshot from the
// shard that served it, push it to the rest of the replica set. Runs
// on the single replication worker.
func (rt *Router) replicate(ctx context.Context, job replJob) {
	defer func() {
		rt.mu.Lock()
		delete(rt.pending, job.key)
		rt.mu.Unlock()
	}()
	snap, gen, err := rt.pullSnapshot(ctx, job.from, job.key)
	if err != nil {
		rt.metrics.replicationErrors.Add(1)
		return
	}
	rt.setHome(job.key, job.from, gen)
	for _, target := range rt.ring.LookupN(sessionRouteKey(job.key), rt.cfg.Replicas) {
		if target == job.from {
			continue
		}
		if rt.hasHome(job.key, target, gen) {
			continue
		}
		if err := rt.pushSnapshot(ctx, target, snap); err != nil {
			rt.metrics.replicationErrors.Add(1)
			continue
		}
		rt.setHome(job.key, target, gen)
		rt.metrics.replications.Add(1)
	}
}

func (rt *Router) setHome(key, backend string, gen uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.homes[key] == nil {
		rt.homes[key] = map[string]uint64{}
	}
	if rt.homes[key][backend] < gen {
		rt.homes[key][backend] = gen
	}
}

func (rt *Router) hasHome(key, backend string, gen uint64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	g, ok := rt.homes[key][backend]
	return ok && g >= gen && g > 0
}

// pullSnapshot fetches a session's ICSS bytes and install generation
// from the shard holding it.
func (rt *Router) pullSnapshot(ctx context.Context, backend, sessKey string) ([]byte, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		backend+"/snapshot?session="+sessKey, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("router: snapshot pull from %s: HTTP %d", backend, resp.StatusCode)
	}
	snap, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return nil, 0, err
	}
	gen, _ := strconv.ParseUint(resp.Header.Get(daemon.GenerationHeader), 10, 64)
	return snap, gen, nil
}

// pushSnapshot installs a pulled snapshot on a replica shard. The
// faultinject hook fires before the wire; 426 (codec version ahead of
// the replica's build) is terminal for this push, 422 (checksum) means
// the bytes were damaged in transit.
func (rt *Router) pushSnapshot(ctx context.Context, backend string, snap []byte) error {
	if err := faultinject.Hit(ctx, faultinject.RouterReplicate); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		backend+"/restore", bytes.NewReader(snap))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusUpgradeRequired:
		return fmt.Errorf("router: replica %s runs an older snapshot codec (HTTP 426)", backend)
	case http.StatusUnprocessableEntity:
		return fmt.Errorf("router: snapshot corrupted in transit to %s (HTTP 422)", backend)
	default:
		return fmt.Errorf("router: snapshot push to %s: HTTP %d", backend, resp.StatusCode)
	}
}

// hedgedQuery races the primary home against a replica: the primary
// goes first, a hedge fires at the first replica after HedgeAfter,
// and the first HTTP response wins while the loser's context is
// canceled. Reports false when every home failed at the transport
// level (nothing was written; the caller falls back to the ring).
func (rt *Router) hedgedQuery(w http.ResponseWriter, r *http.Request, homes []string, body []byte, sessKey string) bool {
	type attempt struct {
		resp     *http.Response
		err      error
		backend  string
		idx      int
		hedge    bool
		canceled bool
	}
	ch := make(chan attempt, 2)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	launch := func(backend string, hedge bool) {
		actx, acancel := context.WithCancel(r.Context())
		idx := len(cancels)
		cancels = append(cancels, acancel)
		go func() {
			resp, err := rt.forwardOnce(actx, backend, "/query", body, "application/json")
			ch <- attempt{resp: resp, err: err, backend: backend, idx: idx,
				hedge: hedge, canceled: actx.Err() != nil}
		}()
	}
	launch(homes[0], false)
	launched := 1
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	hedgeC := timer.C

	var won *attempt
	for got := 0; got < launched; {
		select {
		case <-hedgeC:
			hedgeC = nil
			rt.metrics.hedgesLaunched.Add(1)
			launch(homes[1], true)
			launched++
		case a := <-ch:
			got++
			if won != nil {
				// Race already decided; close the loser's body if it
				// produced one despite cancellation.
				if a.resp != nil {
					a.resp.Body.Close()
				}
				continue
			}
			if a.err != nil {
				if !a.canceled && r.Context().Err() == nil {
					rt.backendFailed(a.backend)
				}
				continue
			}
			won = &a
			if a.hedge {
				rt.metrics.hedgesWon.Add(1)
			}
			// Cancel the losing attempt (only — canceling the winner's
			// context would sever its body mid-relay).
			for i, c := range cancels {
				if i != a.idx {
					c()
				}
			}
			rt.metrics.queriesRouted.Add(1)
			rt.relay(w, a.resp)
			if a.resp.StatusCode == http.StatusOK {
				rt.noteServed(sessKey, a.backend)
			}
		}
	}
	return won != nil
}
