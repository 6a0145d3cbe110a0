package router

// End-to-end tests for the routing tier over a real in-process
// cluster: routed requests cross loopback sockets into full shard
// daemons, so these exercise exactly the production HTTP path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"

	"icost/internal/engine"
	"icost/internal/leakcheck"
)

// testSpec is the session every router test queries: small enough to
// build in tens of milliseconds, real enough to exercise the full
// simulate-build-walk path on each shard.
func testSpec() engine.SessionSpec {
	return engine.SessionSpec{Bench: "mcf", Seed: 7, TraceLen: 2000, Warmup: 1000}
}

func testQueryBody(t *testing.T, op string, cats []string) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"session": testSpec(),
		"op":      op,
		"cats":    cats,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// startTestCluster boots a small cluster and tears it down with the
// test. Shards run one worker each with a tiny cache so the tests
// stay fast.
func startTestCluster(t *testing.T, rcfg Config) *Cluster {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c, err := StartCluster(ctx, ClusterConfig{
		Backends: 3,
		Engine:   engine.Config{Workers: 1, MaxSessions: 4},
		Router:   rcfg,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		cancel()
	})
	return c
}

func post(t *testing.T, client *http.Client, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// shardsHolding returns the indices of shards whose engine holds the
// session — the physical replica set, read off the backends directly.
func shardsHolding(c *Cluster, key string) []int {
	var out []int
	for i := range c.BackendURLs() {
		e := c.BackendEngine(i)
		for _, info := range e.Sessions() {
			if info.Key == key {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// TestRouterRoutingStability: with replication disabled, repeated
// queries for one session land on exactly one shard — consistent
// hashing keeps a key's state single-homed instead of rebuilding it
// everywhere.
func TestRouterRoutingStability(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Config{HotThreshold: 1 << 30})
	client := &http.Client{Timeout: 30 * time.Second}

	body := testQueryBody(t, "cost", []string{"dmiss"})
	for i := 0; i < 8; i++ {
		resp, out := post(t, client, c.RouterURL+"/query", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	key, err := testSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	holders := shardsHolding(c, key)
	if len(holders) != 1 {
		t.Fatalf("session built on shards %v, want exactly one", holders)
	}
	m := c.Router.Metrics()
	if m.QueriesRoutedTotal != 8 || m.BackendsLive != 3 {
		t.Fatalf("metrics after stable routing: %+v", m)
	}
}

// TestDefaultClient: a router given no Client forwards through one
// that keeps 4 idle connections per backend and gives up after 2
// minutes, not through http.DefaultClient (2 idle connections, no
// timeout); an injected Client is kept as given.
func TestDefaultClient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	backends := []string{"http://127.0.0.1:1"}
	rt, err := New(ctx, Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := rt.client
	if c == nil || c == http.DefaultClient || c.Timeout != 2*time.Minute {
		t.Fatalf("default client %+v, want a 2m timeout of its own", c)
	}
	if tr, ok := c.Transport.(*http.Transport); !ok || tr.MaxIdleConnsPerHost != 4 {
		t.Fatalf("default transport %#v, want MaxIdleConnsPerHost 4", c.Transport)
	}

	own := &http.Client{Timeout: time.Second}
	rt2, err := New(ctx, Config{Backends: backends, Client: own})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if rt2.client != own {
		t.Fatal("injected client replaced")
	}
}

// awaitReplication drives queries until the router reports the
// session replicated (>= 2 homes), then returns the replica shard
// indices.
func awaitReplication(t *testing.T, c *Cluster, client *http.Client, body []byte, key string) []int {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, out := post(t, client, c.RouterURL+"/query", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm query: status %d: %s", resp.StatusCode, out)
		}
		if c.Router.Metrics().ReplicatedSessions >= 1 {
			if holders := shardsHolding(c, key); len(holders) >= 2 {
				return holders
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session never replicated; metrics %+v", c.Router.Metrics())
	return nil
}

// normalizeResponse strips the fields that legitimately vary between
// two executions of the same query (wall-clock timing, cache state)
// and re-marshals with sorted keys, so equality means the analysis
// payload — costs, interaction costs, breakdowns — is bit-identical.
func normalizeResponse(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, raw)
	}
	delete(m, "elapsed_ns")
	delete(m, "cached")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		v, err := json.Marshal(m[k])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s=%s\n", k, v)
	}
	return buf.String()
}

// TestReplicaReadsBitIdentical is the acceptance check for snapshot
// replication: after a hot session is copied to a replica, the full
// query mix answered by the replica is bit-identical to the primary's
// answers (volatile fields aside). This is the determinism property
// the whole routing design leans on.
func TestReplicaReadsBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Config{HotThreshold: 1, Replicas: 2})
	client := &http.Client{Timeout: 30 * time.Second}

	key, err := testSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	warm := testQueryBody(t, "cost", []string{"dmiss"})
	holders := awaitReplication(t, c, client, warm, key)
	if len(holders) < 2 {
		t.Fatalf("replica set %v, want >= 2 shards", holders)
	}

	mix := [][]byte{
		testQueryBody(t, "cost", []string{"dmiss"}),
		testQueryBody(t, "cost", []string{"dl1", "win"}),
		testQueryBody(t, "icost", []string{"dmiss", "bmisp"}),
		testQueryBody(t, "icost", []string{"dl1", "win", "bw"}),
		testQueryBody(t, "exectime", nil),
		testQueryBody(t, "breakdown", nil),
		testQueryBody(t, "slack", []string{"dmiss"}),
	}
	for qi, body := range mix {
		answers := make([]string, len(holders))
		for hi, shard := range holders {
			resp, out := post(t, client, c.BackendURLs()[shard]+"/query", body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mix %d on shard %d: status %d: %s", qi, shard, resp.StatusCode, out)
			}
			answers[hi] = normalizeResponse(t, out)
		}
		for hi := 1; hi < len(answers); hi++ {
			if answers[hi] != answers[0] {
				t.Fatalf("mix %d: replica (shard %d) diverged from primary (shard %d):\n--- primary\n%s\n--- replica\n%s",
					qi, holders[hi], holders[0], answers[0], answers[hi])
			}
		}
	}

	// The replica's copy must carry the primary's install generation
	// forward, not restart at zero.
	for _, shard := range holders {
		if gen, ok := c.BackendEngine(shard).SessionGeneration(key); !ok || gen == 0 {
			t.Fatalf("shard %d: generation %d, ok=%v", shard, gen, ok)
		}
	}
}

// TestRouterTenantQuota: the admission layer refuses an over-quota
// tenant with 429 + Retry-After before any backend sees the request,
// and tenants are isolated — one tenant's burst does not spend
// another's budget.
func TestRouterTenantQuota(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Config{
		HotThreshold: 1 << 30,
		TenantRate:   0.5, // refill far slower than the test runs
		TenantBurst:  2,
	})
	client := &http.Client{Timeout: 30 * time.Second}
	body := testQueryBody(t, "cost", []string{"dmiss"})

	hdrA := map[string]string{TenantHeader: "team-a"}
	for i := 0; i < 2; i++ {
		resp, out := post(t, client, c.RouterURL+"/query", body, hdrA)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("within burst, query %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	resp, _ := post(t, client, c.RouterURL+"/query", body, hdrA)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 carries no Retry-After hint")
	}

	// A different tenant still has its full burst.
	resp, out := post(t, client, c.RouterURL+"/query", body, map[string]string{TenantHeader: "team-b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("isolated tenant: status %d: %s", resp.StatusCode, out)
	}
	if got := c.Router.Metrics().QuotaRejectsTotal; got != 1 {
		t.Fatalf("quota rejects = %d, want 1", got)
	}
}

// TestRouterFleet404Relayed: the shard's typed error contract crosses
// the router untouched — a fleet query for an absent aggregate is the
// owner shard's 404, not a router-invented error.
func TestRouterFleet404Relayed(t *testing.T) {
	leakcheck.Check(t)
	c := startTestCluster(t, Config{HotThreshold: 1 << 30})
	client := &http.Client{Timeout: 30 * time.Second}

	body := []byte(`{"fleet":{"binary":"gzip","seed":1,"group":"nope","op":"cost","cats":["dl1"]}}`)
	resp, out := post(t, client, c.RouterURL+"/query", body, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent aggregate: status %d: %s", resp.StatusCode, out)
	}
}
