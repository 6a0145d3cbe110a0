package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/fleet"
)

// TestFlagAudit pins the daemon's flag surface: every expected flag
// exists with the documented default and usage text, and nothing
// undocumented sneaks in. In particular -workers must default to the
// actual GOMAXPROCS value and say so in -h output, rather than hiding
// the resolution behind a zero sentinel.
func TestFlagAudit(t *testing.T) {
	fs := flag.NewFlagSet("icostd", flag.ContinueOnError)
	defineFlags(fs)
	want := map[string]struct {
		def   string
		usage string // substring the help text must contain
	}{
		"addr":          {":8090", "listen address"},
		"workers":       {fmt.Sprint(runtime.GOMAXPROCS(0)), "GOMAXPROCS"},
		"queue":         {"0", "queue depth"},
		"cache-mb":      {"64", "MiB"},
		"sessions":      {"8", "sessions"},
		"preload":       {"", "benchmarks"},
		"pprof":         {"false", "/debug/pprof/"},
		"query-timeout": {"30s", "deadline"},
		"fleet-mb":      {"64", "aggregate"},
		"snapshot-dir":  {"", "snapshots"},
		"envelope":      {"", "BENCH_sens.json"},
		"faults":        {"", "fault-injection"},
		"fault-seed":    {"1", "seed"},

		"route":         {"", "backend URLs"},
		"replicas":      {"2", "hot session"},
		"hedge-after":   {"50ms", "hedge"},
		"hot-threshold": {"3", "replicates"},
		"load-factor":   {"1.25", "bounded-load"},
		"tenant-qps":    {"0", "X-Icost-Tenant"},
		"tenant-burst":  {"10", "burst"},
	}
	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		got[f.Name] = true
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("undocumented flag -%s (usage %q)", f.Name, f.Usage)
			return
		}
		if f.DefValue != w.def {
			t.Errorf("-%s default = %q, want %q", f.Name, f.DefValue, w.def)
		}
		if !strings.Contains(f.Usage, w.usage) {
			t.Errorf("-%s usage %q does not mention %q", f.Name, f.Usage, w.usage)
		}
	})
	for name := range want {
		if !got[name] {
			t.Errorf("expected flag -%s is not defined", name)
		}
	}
}

// TestWorkersFlagRejectsZero covers the validation that replaced the
// old zero-means-default sentinel.
func TestWorkersFlagRejectsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-workers", "0"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("-workers 0 exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "workers") {
		t.Fatalf("unhelpful error: %q", stderr.String())
	}
}

// TestPprofEndpoints checks the -pprof gate: the profile index serves
// when enabled and 404s when disabled (the default).
func TestPprofEndpoints(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()

	on := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{Pprof: true}))
	defer on.Close()
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: index returned %d", resp.StatusCode)
	}

	off := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{}))
	defer off.Close()
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: index returned %d, want 404", resp.StatusCode)
	}
}
