package router

// The shard topology guard: a direct single shard against the routed
// 3-shard cluster under the same open-loop load. A fixed per-query
// service time injected at engine.exec makes one engine worker the
// capacity of a shard, so the comparison checks routing topology,
// which is all it can check on one host. Its numbers are not a
// capacity measurement.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"icost/internal/depgraph"
	"icost/internal/engine"
	"icost/internal/faultinject"
)

// guardBodies builds n query bodies over specs: cost and icost over
// random 2–3 category subsets, so a near-zero result cache misses and
// every query walks a graph. The seed is fixed, so every run offers
// the same mix.
func guardBodies(t *testing.T, specs []engine.SessionSpec, n int) [][]byte {
	t.Helper()
	names := depgraph.FlagNames()
	rng := rand.New(rand.NewSource(7))
	bodies := make([][]byte, n)
	for i := range bodies {
		k := 2 + rng.Intn(2)
		perm := rng.Perm(len(names))
		cats := make([]string, k)
		for j := range cats {
			cats[j] = names[perm[j]]
		}
		op := "cost"
		if i%2 == 1 {
			op = "icost"
		}
		body, err := json.Marshal(map[string]any{"session": specs[i%len(specs)], "op": op, "cats": cats})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// loadRun is one open-loop run's outcome.
type loadRun struct {
	offered, achieved float64 // queries/s
	ok, failed        int
	p50               time.Duration
}

// offer sends bodies to url at rate queries/s for dur, open loop:
// arrivals follow an absolute exponential schedule and never wait for
// answers. The run lasts until the last answer arrives, so a target
// that falls behind shows a lower achieved rate.
func offer(client *http.Client, url string, bodies [][]byte, rate float64, dur time.Duration) loadRun {
	var (
		mu   sync.Mutex
		lats []time.Duration
		wg   sync.WaitGroup
	)
	run := loadRun{offered: rate}
	rng := rand.New(rand.NewSource(11))
	start := time.Now()
	next := start
	for i := 0; ; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.After(start.Add(dur)) {
			break
		}
		time.Sleep(time.Until(next))
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			t0 := time.Now()
			ok := send(client, url, body)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if ok {
				run.ok++
				lats = append(lats, lat)
			} else {
				run.failed++
			}
		}(bodies[i%len(bodies)])
	}
	wg.Wait()
	run.achieved = float64(run.ok) / time.Since(start).Seconds()
	if len(lats) > 0 {
		slices.Sort(lats)
		run.p50 = lats[(len(lats)-1)/2]
	}
	return run
}

// send posts one query and reports whether it was answered 200. A 429
// is the admission protocol asking for a pause, not a failure: it is
// retried after its Retry-After hint (capped at 2 s), three attempts
// in all.
func send(client *http.Client, url string, body []byte) bool {
	for attempt := 1; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || attempt == 3 {
			return resp.StatusCode == http.StatusOK
		}
		wait := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
			wait = min(time.Duration(s)*time.Second, 2*time.Second)
		}
		time.Sleep(wait)
	}
}

// TestShardBenchGuard: under the same open-loop load, the routed
// 3-shard cluster must sustain at least 1.25x the warm-query rate of
// one direct shard, its p50 must stay within 3x + 2 ms of the direct
// path's at the unsaturated rate, and both must reach 0.7x of that
// rate. Everything is relative within one process, so machine speed
// never matters.
func TestShardBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	if raceEnabled {
		// Race-detector overhead swamps the injected service time on a
		// small runner, turning the topology comparison into a CPU
		// benchmark. CI runs this guard in its own non-race step.
		t.Skip("shard guard needs un-instrumented timing; run without -race")
	}
	// One benchmark at distinct seeds: every session builds its own
	// graph at the same cost.
	specs := make([]engine.SessionSpec, 4)
	for i := range specs {
		specs[i] = engine.SessionSpec{Bench: "bzip", Seed: uint64(i + 1), TraceLen: 4000}
	}
	bodies := guardBodies(t, specs, 256)
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 512},
	}
	defer client.CloseIdleConnections()

	// 120 queries/s sits at about half of one shard's capacity (one
	// worker at 4 ms a query: ~250/s); 420/s saturates the single shard
	// but not the 3-shard cluster (~750/s).
	rates := []float64{120, 420}
	sweep := func(backends int, direct bool) []loadRun {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c, err := StartCluster(ctx, ClusterConfig{
			Backends: backends,
			// One worker per shard makes the shard count the capacity
			// knob; a one-byte result cache makes every query walk.
			Engine: engine.Config{Workers: 1, QueueDepth: 64, CacheBytes: 1, MaxSessions: len(specs) + 1},
			// No replication: the guard compares throughput only.
			Router: Config{HotThreshold: 1 << 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		url := c.RouterURL + "/query"
		if direct {
			url = c.BackendURLs()[0] + "/query"
		}
		// Every session is built before the clock starts.
		for _, spec := range specs {
			body, err := json.Marshal(map[string]any{"session": spec, "op": "exectime"})
			if err != nil {
				t.Fatal(err)
			}
			if !send(client, url, body) {
				t.Fatalf("warming session %s@%d failed", spec.Bench, spec.Seed)
			}
		}
		// The service time arms after warmup: a build is many walks,
		// and slowing it buys nothing.
		faultinject.Enable(42, faultinject.Rule{Point: faultinject.EngineExec, Latency: 4 * time.Millisecond})
		defer faultinject.Disable()
		runs := make([]loadRun, len(rates))
		for i, rate := range rates {
			runs[i] = offer(client, url, bodies, rate, 700*time.Millisecond)
		}
		return runs
	}
	single := sweep(1, true)
	cluster := sweep(3, false)
	for i, rate := range rates {
		t.Logf("offered %.0f/s: single %.1f/s (p50 %v, %d failed), cluster %.1f/s (p50 %v, %d failed)", rate,
			single[i].achieved, single[i].p50, single[i].failed, cluster[i].achieved, cluster[i].p50, cluster[i].failed)
	}

	sustained := func(runs []loadRun) float64 {
		var best float64
		for _, r := range runs {
			best = max(best, r.achieved)
		}
		return best
	}
	// Sharding must buy real throughput at the saturating rate. A run
	// on an idle host shows about 2.4x; the floor keeps a margin below
	// that, so scheduler noise on a loaded runner cannot flake the
	// guard while a routing regression (cluster <= single) still fails.
	if s, c := sustained(single), sustained(cluster); c < 1.25*s {
		t.Fatalf("cluster sustained %.0f/s, single shard %.0f/s: speedup %.2fx < 1.25x", c, s, c/s)
	}
	// At the comfortable rate the router's extra hop must not distort
	// the median: both paths are dominated by the injected 4 ms.
	if sp, cp := single[0].p50, cluster[0].p50; cp > 3*sp+2*time.Millisecond {
		t.Fatalf("routed p50 %v vs direct %v: router hop out of bounds", cp, sp)
	}
	for _, r := range []loadRun{single[0], cluster[0]} {
		if r.achieved < 0.7*r.offered {
			t.Fatalf("unsaturated run fell short of its offered rate: %+v", r)
		}
	}
}
