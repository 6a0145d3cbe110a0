package refute

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// envelopePath is the committed accuracy record, at the repo root
// next to the other BENCH_*.json artifacts.
const envelopePath = "../../BENCH_sens.json"

// envelopeFile is the committed schema of BENCH_sens.json.
type envelopeFile struct {
	Note     string             `json:"note"`
	Insts    int                `json:"insts"`
	Grid     []float64          `json:"grid"`
	Envelope map[string]float64 `json:"envelope"`
	// Benchmarks carries recorded `make bench-sens` throughput
	// numbers; the guard ignores them and REFUTE_WRITE preserves them.
	Benchmarks map[string]string `json:"benchmarks,omitempty"`
}

// guardRun is the deterministic harness configuration the guard and
// the regenerator share. Seeded workloads and a deterministic
// simulator make the measured envelope bit-reproducible.
func guardRun(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(context.Background(), DefaultPoints(), Knobs(), DefaultRefuteGrid(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRefuteEnvelopeGuard is the CI gate: the measured
// model-vs-simulator error envelope must not exceed the committed
// one. Regenerate deliberately with:
//
//	REFUTE_WRITE=1 go test -run TestRefuteEnvelopeGuard ./internal/refute/
//
// and review the diff of BENCH_sens.json.
func TestRefuteEnvelopeGuard(t *testing.T) {
	rep := guardRun(t)

	if os.Getenv("REFUTE_WRITE") != "" {
		var prev envelopeFile
		if raw, err := os.ReadFile(envelopePath); err == nil {
			_ = json.Unmarshal(raw, &prev) // keep recorded benchmarks
		}
		out := envelopeFile{
			Note:       "Model-vs-simulator refutation envelope (internal/refute). Regenerate: REFUTE_WRITE=1 go test -run TestRefuteEnvelopeGuard ./internal/refute/",
			Insts:      rep.Insts,
			Envelope:   rep.Envelope,
			Benchmarks: prev.Benchmarks,
		}
		for _, a := range DefaultRefuteGrid() {
			out.Grid = append(out.Grid, a.Float())
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(envelopePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", envelopePath, rep.Envelope)
		return
	}

	raw, err := os.ReadFile(envelopePath)
	if err != nil {
		t.Fatalf("missing committed envelope (run with REFUTE_WRITE=1 to create): %v", err)
	}
	var rec envelopeFile
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("bad %s: %v", envelopePath, err)
	}
	// The run is deterministic, so the only drift a nonzero tolerance
	// absorbs is float formatting through the JSON round-trip.
	const tol = 1e-9
	for knob, got := range rep.Envelope {
		want, ok := rec.Envelope[knob]
		if !ok {
			t.Errorf("knob %q has no committed envelope — regenerate BENCH_sens.json", knob)
			continue
		}
		if got > want+tol {
			t.Errorf("knob %q: measured envelope %.6g exceeds committed %.6g — the model/simulator gap widened; fix the model or deliberately regenerate BENCH_sens.json", knob, got, want)
		}
	}
	for knob := range rec.Envelope {
		if _, ok := rep.Envelope[knob]; !ok {
			t.Errorf("committed envelope has stale knob %q", knob)
		}
	}
}

// TestRefuteEndpointsExact: at α=1 the prediction is the unidealized
// critical path, which equals simulated cycles exactly; the harness
// must measure zero error there for every knob.
func TestRefuteEndpointsExact(t *testing.T) {
	rep := guardRun(t)
	for _, s := range rep.Samples {
		if s.Alpha == 1 && s.RelErr != 0 {
			t.Errorf("%s/%s α=1: pred %d != truth %d — unidealized graph no longer matches the machine",
				s.Bench, s.Knob, s.Pred, s.Truth)
		}
	}
}

func TestRunRejectsEmptyInputs(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, nil, Knobs(), DefaultRefuteGrid(), 100); err == nil {
		t.Error("want error for no points")
	}
	if _, err := Run(ctx, DefaultPoints(), nil, DefaultRefuteGrid(), 100); err == nil {
		t.Error("want error for no knobs")
	}
	if _, err := Run(ctx, DefaultPoints(), Knobs(), nil, 100); err == nil {
		t.Error("want error for no grid")
	}
	if _, err := Run(ctx, DefaultPoints(), Knobs(), DefaultRefuteGrid(), 0); err == nil {
		t.Error("want error for zero trace length")
	}
}
