package ooo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/workload"
)

// simDigests pins the simulator's full output, per benchmark, for the
// grid TestSimulatorDigest runs: every machine of digestMachines under
// every idealization of digestIdeals. Each digest covers Cycles, every
// Stats counter, the five node-time columns and all seven graph
// columns of every simulation, so a change to the functional units,
// the TLBs, the caches or the step recurrence that moves any timing
// or any record anywhere shows up here. Regenerate only for an
// intended change of the machine model, never for a refactor.
var simDigests = map[string]string{
	"bzip":   "17963aa6dd8161d7",
	"crafty": "2e335023600de593",
	"eon":    "8fb196fabfb69b7e",
	"gap":    "e87adee747f88f24",
	"gcc":    "7d77122a59ce33e9",
	"gzip":   "e3ab5cc07800ca29",
	"mcf":    "20d3a26fd203a8f3",
	"parser": "475b6b9fc073a3a7",
	"perl":   "62772906830e8e87",
	"twolf":  "352bc29fd8963c8c",
	"vortex": "024bd334ee1456d4",
	"vpr":    "b2fb759e635e0c30",
}

// digestMachines are the Table 6 machine, the three Table 4 machines
// (internal/experiments' Machine4a/4b/4c) and the Table 6 machine with
// wrong-path fetch modelled.
func digestMachines() []Config {
	wrongPath := DefaultConfig()
	wrongPath.ModelWrongPath = true
	return []Config{
		DefaultConfig(),
		DefaultConfig().WithDL1Latency(4),
		DefaultConfig().WithWakeupExtra(1),
		DefaultConfig().WithBranchRecovery(15),
		wrongPath,
	}
}

// digestIdeals re-simulate under no idealization, the 20x window
// (long out-of-order spans for the FU schedule), perfect data caches
// and TLBs, a pair, everything except bandwidth (so every FU and
// store-port booking still arbitrates) and zero-latency execution.
var digestIdeals = []depgraph.Flags{
	0,
	depgraph.IdealWindow,
	depgraph.IdealDMiss,
	depgraph.IdealBMisp | depgraph.IdealWindow,
	depgraph.AllFlags &^ depgraph.IdealBW,
	depgraph.IdealDL1 | depgraph.IdealShortALU | depgraph.IdealLongALU,
}

// digestSim folds one simulation's whole observable output into h.
func digestSim(h hash.Hash, res *Result) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(res.Cycles)
	st := res.Stats
	for _, v := range []int64{int64(st.Insts), st.CondBranches, st.Mispredicts, st.Loads, st.Stores,
		st.DL1Misses, st.L2Misses, st.DTLBMisses, st.IL1Misses, st.IL2Misses, st.ITLBMisses,
		st.PartialMisses, st.StoreForwards} {
		put(v)
	}
	tm := res.Times
	for _, col := range [][]int64{tm.D, tm.R, tm.E, tm.P, tm.C} {
		for _, v := range col {
			put(v)
		}
	}
	g := res.Graph
	for i, in := range g.Info {
		var flags int64
		if in.Mispredict {
			flags |= 1
		}
		if in.DTLBMiss {
			flags |= 2
		}
		if in.ITLBMiss {
			flags |= 4
		}
		put(int64(in.Op) | int64(in.DataLevel)<<8 | int64(in.ILevel)<<16 | flags<<24 | int64(in.SIdx)<<32)
		put(int64(g.DDBreak[i]) | int64(g.RELat[i])<<32)
		put(int64(g.CCLat[i]) | int64(g.PPLeader[i])<<32)
		put(int64(g.Prod1[i]) | int64(g.Prod2[i])<<32)
	}
}

// TestSimulatorDigest is the simulator's golden gate: 12 benchmarks ×
// 2 seeds × 5 machines × 6 idealizations, 720 simulations, each hashed
// over its cycles, stats, node times and graph records, must reproduce
// the recorded per-benchmark digests bit for bit.
func TestSimulatorDigest(t *testing.T) {
	const n, warmup = 3000, 1000
	machines := digestMachines()
	for _, name := range workload.Names() {
		h := sha256.New()
		for _, seed := range []uint64{11, 12} {
			tr, err := workload.Load(name, seed, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, cfg := range machines {
				for _, f := range digestIdeals {
					res, err := Simulate(tr, cfg, Options{Ideal: f, KeepGraph: true, Warmup: warmup})
					if err != nil {
						t.Fatalf("%s/%d/%v: %v", name, seed, f, err)
					}
					digestSim(h, res)
					depgraph.ReleaseTimes(res.Times)
					res.Graph.Release()
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil)[:8])
		if want := simDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
