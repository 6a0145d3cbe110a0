package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/fleet"
)

// TestLoadEnvelope pins the -envelope file contract: the refutation
// harness's BENCH_sens.json parses down to its envelope member, and
// malformed files are rejected at startup rather than silently
// advertised as empty.
func TestLoadEnvelope(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"note":"x","envelope":{"dl1":0.001,"mem":0.002}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	acc, err := loadEnvelope(good)
	if err != nil {
		t.Fatal(err)
	}
	if acc["dl1"] != 0.001 || acc["mem"] != 0.002 {
		t.Fatalf("parsed %v", acc)
	}

	for name, body := range map[string]string{
		"empty":    `{"note":"x"}`,
		"negative": `{"envelope":{"dl1":-1}}`,
		"garbage":  `not json`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadEnvelope(p); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := loadEnvelope(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file: want error")
	}
}

// TestSensitivityEndpointAdvertisesEnvelope: a daemon configured with
// an accuracy envelope attaches it to sensitivity responses, so
// clients see the measured model-vs-simulator bound next to every
// curve.
func TestSensitivityEndpointAdvertisesEnvelope(t *testing.T) {
	e := engine.New(engine.Config{
		Workers:  2,
		Accuracy: map[string]float64{"dl1": 0.0005, "win": 0.001},
	})
	srv := httptest.NewServer(daemon.NewHandler(e, fleet.NewAggregator(fleet.Config{}), daemon.Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})

	body := `{"session":{"bench":"gzip","seed":3,"trace_len":2000,"warmup":500},
	          "op":"sensitivity","cats":["dl1","win"],"alphas":[0,0.5,1]}`
	resp, out := postQuery(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	sens, ok := out["sensitivity"].(map[string]any)
	if !ok {
		t.Fatalf("no sensitivity payload in %v", out)
	}
	curves, ok := sens["curves"].([]any)
	if !ok || len(curves) != 2 {
		t.Fatalf("bad curves: %v", sens["curves"])
	}
	acc, ok := sens["accuracy"].(map[string]any)
	if !ok || acc["dl1"] != 0.0005 || acc["win"] != 0.001 {
		t.Fatalf("accuracy envelope not advertised: %v", sens["accuracy"])
	}
	alphas, ok := sens["alphas"].([]any)
	if !ok || len(alphas) != 3 {
		t.Fatalf("bad alphas: %v", sens["alphas"])
	}
}
