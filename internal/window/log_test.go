package window

import (
	"context"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/ooo"
	"icost/internal/workload"
)

// replayLanes mixes binary and α-scaled lanes, the base among them.
func replayLanes() []depgraph.Ideal {
	ids := []depgraph.Ideal{
		{},
		{Global: depgraph.IdealDL1},
		{Global: depgraph.IdealDMiss | depgraph.IdealICache},
		{Global: depgraph.IdealWindow},
		{Global: depgraph.AllFlags},
	}
	for _, f := range []depgraph.Flags{depgraph.IdealWindow, depgraph.IdealBMisp, depgraph.IdealDMiss | depgraph.IdealBW} {
		ids = append(ids, depgraph.Ideal{Global: f, Scale: depgraph.ScaleUniform(f, depgraph.AlphaOf(0.5))})
	}
	return ids
}

// sameResult fails unless a replayed pass answers exactly as the pass
// it replays: every lane, the cycles, the stats, the instruction and
// block counts.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Stats != want.Stats || got.Insts != want.Insts || got.Windows != want.Windows {
		t.Fatalf("%s: cycles/insts/windows %d/%d/%d stats %+v, simulated %d/%d/%d stats %+v",
			what, got.Cycles, got.Insts, got.Windows, got.Stats, want.Cycles, want.Insts, want.Windows, want.Stats)
	}
	for k := range want.Times {
		if got.Times[k] != want.Times[k] {
			t.Fatalf("%s: lane %d replayed %d, simulated %d", what, k, got.Times[k], want.Times[k])
		}
	}
}

// TestReplayMatchesSimulatedPass is the block log's oracle test: on
// every benchmark, a recorded pass replays bit for bit — each lane
// equal to the simulated pass and to the whole-graph scalar walk — on
// the Table 6 machine, on one whose carry depth (window 256: 5,120
// instructions) far exceeds the block size, and on two whose
// wakeup_extra (5 and 100) voids the carry argument, so that the pass
// and its log reach back over the whole stream, at trace lengths the
// block size does not divide. One Log records every pass in turn.
func TestReplayMatchesSimulatedPass(t *testing.T) {
	ctx := context.Background()
	ids := replayLanes()
	var log Log
	for _, m := range []struct {
		name string
		sim  ooo.Config
		n    int
		win  int
	}{
		{"table6", ooo.DefaultConfig(), 3001, 512},
		{"window256", ooo.DefaultConfig().WithWindow(256), 7777, 1000},
		{"wakeup5", ooo.DefaultConfig().WithWakeupExtra(5), 3001, 512},
		{"wakeup100", ooo.DefaultConfig().WithWakeupExtra(100), 3001, 512},
	} {
		if k := m.sim.Graph.CarryDepth(); m.name == "window256" && k <= m.win {
			t.Fatalf("test premise broken: carry depth %d not above the %d-instruction block", k, m.win)
		}
		for _, bench := range workload.Names() {
			req := Request{Bench: bench, Seed: 3, TraceLen: m.n, Warmup: 300, WindowInsts: m.win, Sim: m.sim}
			want := fullTimesIdeals(t, req, ids)
			sim, err := Record(ctx, req, ids, &log)
			if err != nil {
				t.Fatalf("%s/%s: record: %v", m.name, bench, err)
			}
			if !log.Complete() || log.Insts() != int64(req.TraceLen) {
				t.Fatalf("%s/%s: log complete %v over %d instructions", m.name, bench, log.Complete(), log.Insts())
			}
			for k := range ids {
				if sim.Times[k] != want[k] {
					t.Fatalf("%s/%s: lane %d recorded pass %d, whole-graph %d", m.name, bench, k, sim.Times[k], want[k])
				}
			}
			for _, procs := range []int{1, 2, 3} {
				rep, err := analyze(ctx, req, ids, procs, nil, &log)
				if err != nil {
					t.Fatalf("%s/%s: replay over %d groups: %v", m.name, bench, procs, err)
				}
				sameResult(t, m.name+"/"+bench, rep, sim)
			}
			t.Logf("%s/%s: %.2f B per instruction", m.name, bench, float64(log.encodedBytes())/float64(log.Insts()))
		}
	}
}

// TestLogBytesPerInstruction pins the encoding's density where a
// long-trace session lives: 300k instructions on the Table 6 machine,
// 3.5 bytes per instruction or less.
func TestLogBytesPerInstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("300k-instruction passes")
	}
	for _, bench := range []string{"gcc", "gzip", "mcf", "parser"} {
		req := Request{Bench: bench, Seed: 42, TraceLen: 300_000, Warmup: 30_000, WindowInsts: 4096, Sim: ooo.DefaultConfig()}
		var log Log
		if _, err := Record(context.Background(), req, []depgraph.Ideal{{}}, &log); err != nil {
			t.Fatal(err)
		}
		per := float64(log.encodedBytes()) / float64(log.Insts())
		t.Logf("%s: %d bytes, %.2f per instruction, %d held", bench, log.encodedBytes(), per, log.Bytes())
		if per > 3.5 {
			t.Errorf("%s: %.2f bytes per instruction, want at most 3.5", bench, per)
		}
	}
}

// TestReplayLogLifecycle pins the log's states: an abandoned or failed
// recording never replays, a recording drops the one before it and
// holds no more than it encodes, and a replay leaves its log
// untouched.
func TestReplayLogLifecycle(t *testing.T) {
	ctx := context.Background()
	req := Request{Bench: "gzip", Seed: 2, TraceLen: 40_000, Warmup: 100, WindowInsts: 700, Sim: ooo.DefaultConfig()}
	ids := []depgraph.Ideal{{Global: depgraph.IdealDMiss}}
	var log Log
	if _, err := Replay(ctx, &log, ids); err == nil {
		t.Fatal("replay of an empty log succeeded")
	}
	if _, err := Record(ctx, req, ids, &log); err != nil {
		t.Fatal(err)
	}
	held := log.Bytes()
	if len(log.chunks) < 2 {
		t.Fatalf("a %d-instruction log fits one chunk; the shrink check needs two", req.TraceLen)
	}

	// A canceled recording is incomplete and cannot replay.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Record(cctx, req, ids, &log); err == nil {
		t.Fatal("canceled recording succeeded")
	}
	if log.Complete() {
		t.Fatal("a canceled recording left a complete log")
	}
	if _, err := Replay(ctx, &log, ids); err == nil {
		t.Fatal("replay of a canceled recording succeeded")
	}

	// A shorter recording holds no more than it encodes.
	short := req
	short.TraceLen = 2000
	if _, err := Record(ctx, short, ids, &log); err != nil {
		t.Fatal(err)
	}
	if log.Bytes() != logChunk || log.Bytes() >= held {
		t.Fatalf("a 2,000-instruction log holds %d bytes (the longer one held %d)", log.Bytes(), held)
	}
	sim, err := AnalyzeIdeals(ctx, short, ids)
	if err != nil {
		t.Fatal(err)
	}
	enc := log.encodedBytes()
	for i := 0; i < 2; i++ {
		rep, err := Replay(ctx, &log, ids)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "short", rep, sim)
	}
	if log.encodedBytes() != enc || !log.Complete() {
		t.Fatal("replays changed the log")
	}

	// A block that would grow the recording past the cap abandons it:
	// the log frees its chunks and cannot replay.
	var big Log
	big.reset(req)
	big.cur = LogCap/logChunk - 1
	big.chunks = make([][]byte, big.cur+1)
	big.chunks[big.cur] = make([]byte, logChunk-maxInstBytes+1, logChunk)
	big.encode(&depgraph.Window{N: 1, Info: make([]depgraph.InstInfo, 1), DDBreak: []uint8{0}, RELat: []int32{0},
		CCLat: []int32{0}, Prod1: []int32{depgraph.NoRef}, Prod2: []int32{depgraph.NoRef}, PPLeader: []int32{depgraph.NoRef}, MispPrev: []uint8{0}})
	big.finish(&ooo.Result{})
	if big.Complete() || big.Bytes() != 0 {
		t.Fatalf("a recording past the cap: complete %v, %d bytes held", big.Complete(), big.Bytes())
	}
}
