package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"testing"

	"icost/internal/depgraph"
	"icost/internal/faultinject"
	"icost/internal/window"
)

// windowedQueryMix is the query surface a windowed session answers:
// everything but slack (which needs a resident graph).
func windowedQueryMix(spec SessionSpec) []Query {
	return []Query{
		{Session: spec, Op: OpCost, Cats: []string{"dl1"}},
		{Session: spec, Op: OpCost, Cats: []string{"win", "bw"}},
		{Session: spec, Op: OpICost, Cats: []string{"dl1", "win"}},
		{Session: spec, Op: OpExecTime, Cats: []string{"dmiss"}},
		{Session: spec, Op: OpExecTime},
		{Session: spec, Op: OpBreakdown},
		{Session: spec, Op: OpFull, Cats: []string{"dl1", "win", "bw"}},
		{Session: spec, Op: OpMatrix, Cats: []string{"dl1", "dmiss", "win"}},
	}
}

// answerOnly renders just the analysis payload of a response —
// stripping session identity, serving provenance, and the windowed
// shape fields — so windowed and whole-graph sessions for the same
// machine can be compared answer-for-answer.
func answerOnly(t *testing.T, resp *Response) []byte {
	t.Helper()
	cp := *resp
	cp.SessionKey = ""
	cp.Elapsed = 0
	cp.Cached = false
	cp.Windowed = false
	cp.Windows = 0
	cp.PeakBytes = 0
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWindowedSessionMatchesWholeGraph: a session built through the
// bounded-memory windowed pipeline answers the whole query surface
// identically to the resident-graph session for the same machine and
// trace — the engine-level restatement of the windowed-exactness
// property.
func TestWindowedSessionMatchesWholeGraph(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()

	whole := SessionSpec{Bench: "gcc", Seed: 11, TraceLen: 5000, Warmup: 1000}
	windowed := whole
	windowed.WindowInsts = 777 // deliberately not dividing TraceLen

	for i, wq := range windowedQueryMix(whole) {
		want, err := e.Query(ctx, wq)
		if err != nil {
			t.Fatalf("whole-graph %s: %v", wq.Op, err)
		}
		qq := windowedQueryMix(windowed)[i]
		got, err := e.Query(ctx, qq)
		if err != nil {
			t.Fatalf("windowed %s: %v", qq.Op, err)
		}
		if !got.Windowed {
			t.Fatalf("%s: windowed session response not marked windowed", qq.Op)
		}
		if wantW := (whole.TraceLen + windowed.WindowInsts - 1) / windowed.WindowInsts; got.Windows != wantW {
			t.Fatalf("%s: %d windows, want %d", qq.Op, got.Windows, wantW)
		}
		if got.PeakBytes <= 0 {
			t.Fatalf("%s: peak bytes %d", qq.Op, got.PeakBytes)
		}
		if g, w := answerOnly(t, got), answerOnly(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s diverged:\n  whole:    %s\n  windowed: %s", wq.Op, w, g)
		}
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 {
		t.Fatalf("windowed builds %d, want 1", m.WindowedBuildsTotal)
	}

	// Slack needs a resident graph; a windowed session must reject it
	// as a validation error, not panic on its nil graph.
	_, err := e.Query(ctx, Query{Session: windowed, Op: OpSlack})
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("slack on windowed session: got %v, want validation error", err)
	}
	if _, err := e.Query(ctx, Query{Session: whole, Op: OpSlack}); err != nil {
		t.Fatalf("slack on whole-graph session: %v", err)
	}
}

// TestWindowedSpecValidation pins the spec-level contract for
// window_insts.
func TestWindowedSpecValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()

	bad := SessionSpec{Bench: "gcc", TraceLen: 500, WindowInsts: -1}
	var ve *ValidationError
	if _, err := e.Warm(ctx, bad); !errors.As(err, &ve) {
		t.Fatalf("negative window_insts: got %v", err)
	}
	// WakeupExtra beyond the windowed-exactness precondition is legal
	// for whole-graph sessions but must be rejected when windowed.
	edge := SessionSpec{Bench: "gcc", TraceLen: 500, WakeupExtra: 100}
	if _, err := e.Warm(ctx, edge); err != nil {
		t.Fatalf("whole-graph wakeup_extra=100: %v", err)
	}
	edge.WindowInsts = 64
	if _, err := e.Warm(ctx, edge); !errors.As(err, &ve) {
		t.Fatalf("windowed wakeup_extra=100: got %v", err)
	}
	// Slack needs a resident graph: refused on a windowed spec before
	// admission, so no build runs.
	if _, err := e.Query(ctx, Query{Session: SessionSpec{Bench: "gcc", TraceLen: 500, WindowInsts: 64}, Op: OpSlack}); !errors.As(err, &ve) {
		t.Fatalf("slack on a windowed spec: got %v", err)
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 0 {
		t.Fatalf("rejected windowed queries ran %d windowed builds", m.WindowedBuildsTotal)
	}
	// window_insts is part of session identity.
	a := SessionSpec{Bench: "gcc", TraceLen: 500}
	b := a
	b.WindowInsts = 128
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka == kb {
		t.Fatal("window_insts not in session key")
	}
}

// TestHugeWindowResolvesToStream: a request's window is capped at the
// stream's length, warmup included, which changes no answer — a window
// that long never fills — and keeps a huge window from sizing rings or
// overflowing Window × WindowIdealFactor. Whole-graph and windowed
// sessions at windows up to MaxInt64 answer a matrix exactly as at
// 1<<20, and a windowed session holds no more than at the stream's
// length.
func TestHugeWindowResolvesToStream(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 16})
	defer e.Close()
	spec := SessionSpec{Bench: "gcc", Seed: 4, TraceLen: 2000, Warmup: 1000}
	query := func(window, windowInsts int) *Response {
		t.Helper()
		sp := spec
		sp.Window, sp.WindowInsts = window, windowInsts
		resp, err := e.Query(ctx, Query{Session: sp, Op: OpMatrix})
		if err != nil {
			t.Fatalf("window %d, window_insts %d: %v", window, windowInsts, err)
		}
		return resp
	}
	want := answerOnly(t, query(1<<20, 0))
	stream := query(spec.Warmup+spec.TraceLen, 512)
	for _, window := range []int{1 << 16, 1 << 40, 1 << 62, math.MaxInt64} {
		for _, windowInsts := range []int{0, 512} {
			resp := query(window, windowInsts)
			if got := answerOnly(t, resp); !bytes.Equal(got, want) {
				t.Fatalf("window %d, window_insts %d: matrix diverged from window 1<<20:\n  want %s\n  got  %s",
					window, windowInsts, want, got)
			}
			if resp.PeakBytes > stream.PeakBytes {
				t.Fatalf("window %d: peak bytes %d, %d at the stream's length", window, resp.PeakBytes, stream.PeakBytes)
			}
		}
	}
}

// TestWindowedSnapshotRoundTrip: a windowed session snapshots to the
// kind-1 payload, restores answering the full windowed query surface
// byte-identically, and re-snapshots bit-for-bit.
func TestWindowedSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "vpr", Seed: 5, TraceLen: 4000, Warmup: 500, WindowInsts: 512}

	e1 := New(Config{Workers: 2, MaxSessions: 2})
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, q := range windowedQueryMix(spec) {
		resp, err := e1.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		want = append(want, canonicalResponse(t, resp))
	}
	var snap bytes.Buffer
	if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := New(Config{Workers: 2, MaxSessions: 2})
	defer e2.Close()
	gotKey, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("restored key %s, want %s", gotKey, key)
	}
	for i, q := range windowedQueryMix(spec) {
		resp, err := e2.Query(ctx, q)
		if err != nil {
			t.Fatalf("restored %s: %v", q.Op, err)
		}
		if got := canonicalResponse(t, resp); !bytes.Equal(got, want[i]) {
			t.Fatalf("%s diverged after restore:\n  built:    %s\n  restored: %s", q.Op, want[i], got)
		}
	}
	if m := e2.Metrics(); m.SessionBuildP50us != 0 || m.WindowedBuildsTotal != 0 {
		t.Fatal("restored engine ran a cold build")
	}
	var snap2 bytes.Buffer
	if err := e2.SnapshotSession(ctx, key, &snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
		t.Fatalf("re-snapshot differs (%d vs %d bytes)", snap.Len(), snap2.Len())
	}
	// Slack stays rejected after restore.
	var ve *ValidationError
	if _, err := e2.Query(ctx, Query{Session: spec, Op: OpSlack}); !errors.As(err, &ve) {
		t.Fatalf("slack on restored windowed session: got %v", err)
	}
}

// TestSnapshotRestoresCSRByteEqual: restoring a whole-graph snapshot
// reproduces the flat CSR record columns byte for byte — the graph a
// restored session answers from is the graph that was simulated, not
// a merely equivalent one.
func TestSnapshotRestoresCSRByteEqual(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "mcf", Seed: 13, TraceLen: 3000, Warmup: 300}

	e1 := New(Config{Workers: 1})
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	orig := e1.sessionByKey(key)
	if orig == nil || orig.result.Graph == nil {
		t.Fatal("built session has no graph")
	}
	var snap bytes.Buffer
	if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if _, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	rest := e2.sessionByKey(key)
	if rest == nil || rest.result.Graph == nil {
		t.Fatal("restored session has no graph")
	}
	g1, g2 := orig.result.Graph, rest.result.Graph
	if g1.Len() != g2.Len() {
		t.Fatalf("lengths differ: %d vs %d", g1.Len(), g2.Len())
	}
	n := g1.Len()
	if !bytes.Equal(g1.DDBreak[:n], g2.DDBreak[:n]) {
		t.Fatal("DDBreak columns differ")
	}
	for i := 0; i < n; i++ {
		if g1.Info[i] != g2.Info[i] {
			t.Fatalf("Info[%d]: %+v vs %+v", i, g1.Info[i], g2.Info[i])
		}
		if g1.RELat[i] != g2.RELat[i] || g1.CCLat[i] != g2.CCLat[i] ||
			g1.Prod1[i] != g2.Prod1[i] || g1.Prod2[i] != g2.Prod2[i] ||
			g1.PPLeader[i] != g2.PPLeader[i] {
			t.Fatalf("record %d differs: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)", i,
				g1.RELat[i], g1.CCLat[i], g1.Prod1[i], g1.Prod2[i], g1.PPLeader[i],
				g2.RELat[i], g2.CCLat[i], g2.Prod1[i], g2.Prod2[i], g2.PPLeader[i])
		}
	}
	e1.Close() // after comparison: Close releases pooled graph storage
}

// TestWindowedRefolds pins which idealizations a windowed session
// folds, and when. A fresh session's build folds the base and exactly
// what its first query reads, so that query — whatever its op — runs
// no re-fold and answers byte-identically to the whole-graph session.
// After a base-only Warm, a query needing anything else re-folds the
// stream once for all of its misses, two concurrent queries missing the
// same subset share one re-fold, and a sensitivity query re-folds only
// the grid points the memo lacks.
func TestWindowedRefolds(t *testing.T) {
	ctx := context.Background()
	whole := SessionSpec{Bench: "mcf", Seed: 3, TraceLen: 3000, Warmup: 500}
	windowed := whole
	windowed.WindowInsts = 512

	same := func(e *Engine, q Query) {
		t.Helper()
		q.Session = windowed
		got, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("windowed %s %v: %v", q.Op, q.Cats, err)
		}
		q.Session = whole
		want, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("whole-graph %s %v: %v", q.Op, q.Cats, err)
		}
		if g, w := answerOnly(t, got), answerOnly(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s %v diverged:\n  whole:    %s\n  windowed: %s", q.Op, q.Cats, w, g)
		}
	}
	refolds := func(e *Engine) (int64, int64) {
		m := e.Metrics()
		return m.WindowedRefoldsTotal, m.WindowedRefoldLanesTotal
	}

	// lanes counts the distinct idealizations the query reads, the base
	// included: α = 0 is a single's binary entry and α = 1 the base.
	for _, tc := range []struct {
		q     Query
		lanes int64
	}{
		{Query{Op: OpCost, Cats: []string{"dl1"}}, 2},
		{Query{Op: OpCost, Cats: []string{"win", "bw"}}, 2},
		{Query{Op: OpExecTime}, 1},
		{Query{Op: OpExecTime, Cats: []string{"dmiss"}}, 2},
		{Query{Op: OpICost, Cats: []string{"dl1", "win"}}, 4},
		{Query{Op: OpICost, Cats: []string{"dl1", "dmiss", "win"}}, 8},
		{Query{Op: OpBreakdown}, 16},
		{Query{Op: OpBreakdown, Focus: "dl1", Cats: []string{"win", "bw", "dmiss"}}, 8},
		{Query{Op: OpFull, Cats: []string{"dl1", "win", "bw"}}, 8},
		{Query{Op: OpMatrix, Cats: []string{"dl1", "dmiss", "win"}}, 7},
		{Query{Op: OpMatrix}, 37},
		{Query{Op: OpSensitivity, Cats: []string{"dl1", "win"}}, 9},
	} {
		e := New(Config{Workers: 2, MaxSessions: 4})
		same(e, tc.q)
		m := e.Metrics()
		if m.WindowedBuildsTotal != 1 || m.WindowedBuildLanesTotal != tc.lanes {
			t.Fatalf("%s %v: %d builds over %d lanes, want 1 over %d",
				tc.q.Op, tc.q.Cats, m.WindowedBuildsTotal, m.WindowedBuildLanesTotal, tc.lanes)
		}
		if n, lanes := refolds(e); n != 0 || lanes != 0 {
			t.Fatalf("%s %v: first query ran %d re-folds over %d lanes, want none", tc.q.Op, tc.q.Cats, n, lanes)
		}
		e.Close()
	}

	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()
	key, err := e.Warm(ctx, windowed)
	if err != nil {
		t.Fatal(err)
	}
	if known := e.sessionByKey(key).analyzer.Known(); len(known) != 1 {
		t.Fatalf("Warm folded %d subsets, want the base alone", len(known))
	}

	// Sensitivity after a base-only build: dl1 and win over the default
	// grid re-fold their α = 0 singles and six interior samples in one
	// pass, α = 0.6 adds two, and dl1 over {0, 0.25, 1} is all memo
	// reads.
	for _, tc := range []struct {
		q             Query
		passes, lanes int64
	}{
		{Query{Op: OpSensitivity, Cats: []string{"dl1", "win"}}, 1, 8},
		{Query{Op: OpSensitivity, Cats: []string{"dl1", "win"}, Alphas: []float64{0, 0.5, 0.6, 1}}, 1, 2},
		{Query{Op: OpSensitivity, Cats: []string{"dl1"}, Alphas: []float64{0, 0.25, 1}}, 0, 0},
	} {
		n0, l0 := refolds(e)
		same(e, tc.q)
		if n, lanes := refolds(e); n-n0 != tc.passes || lanes-l0 != tc.lanes {
			t.Fatalf("sensitivity %v over %v: %d re-folds over %d lanes, want %d over %d",
				tc.q.Cats, tc.q.Alphas, n-n0, lanes-l0, tc.passes, tc.lanes)
		}
	}

	// A full breakdown over three categories misses every subset but the
	// base and the two singles the curves folded: one re-fold of five
	// lanes. A re-fold is not a graph walk: the batch counters stay put.
	batches := e.Metrics().BatchesTotal
	full := Query{Session: windowed, Op: OpFull, Cats: []string{"dl1", "win", "bw"}}
	if _, err := e.Query(ctx, full); err != nil {
		t.Fatal(err)
	}
	if n, lanes := refolds(e); n != 3 || lanes != 15 {
		t.Fatalf("full over three categories: %d re-folds over %d lanes in all, want 3 over 15", n, lanes)
	}
	if got := e.Metrics().BatchesTotal; got != batches {
		t.Fatalf("a windowed re-fold fed the graph batch counter: %d -> %d", batches, got)
	}
	same(e, full)

	// Both queries reach the analyzer before either re-fold can
	// finish: the onJobStart barrier holds each worker until the other
	// has picked up its job.
	var arrived sync.WaitGroup
	arrived.Add(2)
	e.onJobStart = func() {
		arrived.Done()
		arrived.Wait()
	}
	pair := []Query{
		{Session: windowed, Op: OpExecTime, Cats: []string{"dl1", "dmiss", "win"}},
		{Session: windowed, Op: OpCost, Cats: []string{"dl1", "dmiss", "win"}},
	}
	errs := make([]error, len(pair))
	var wg sync.WaitGroup
	for i, q := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Query(ctx, q)
		}()
	}
	wg.Wait()
	e.onJobStart = nil
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent %s: %v", pair[i].Op, err)
		}
	}
	if n, lanes := refolds(e); n != 4 || lanes != 16 {
		t.Fatalf("two concurrent misses of one subset: %d re-folds over %d lanes in all, want 4 over 16", n, lanes)
	}
	for _, q := range pair {
		same(e, q)
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 || m.WindowedBuildLanesTotal != 1 {
		t.Fatalf("windowed builds %d over %d lanes, want 1 over 1", m.WindowedBuildsTotal, m.WindowedBuildLanesTotal)
	}
}

// denseTable folds every one of the 256 idealization subsets of a
// windowed spec in one pass, index == flags.
func denseTable(t testing.TB, spec SessionSpec) []int64 {
	t.Helper()
	spec, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]depgraph.Flags, 1<<depgraph.NumFlags)
	for i := range all {
		all[i] = depgraph.Flags(i)
	}
	wres, err := window.Analyze(context.Background(), spec.windowRequest(), all)
	if err != nil {
		t.Fatal(err)
	}
	return wres.Times
}

// snapFrame frames a payload under an explicit codec version.
func snapFrame(version byte, payload []byte) []byte {
	frame := []byte{'I', 'C', 'S', 'S', version}
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, snapCRC))
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	return append(frame, payload...)
}

// windowedPayload hand-encodes a windowed session's payload up to and
// including its run shape; the caller appends the body's entries.
func windowedPayload(s *session) []byte {
	sp := s.spec
	p := binary.AppendUvarint(nil, uint64(len(sp.Bench)))
	p = append(p, sp.Bench...)
	for _, v := range []uint64{sp.Seed, uint64(sp.TraceLen), uint64(sp.Warmup), uint64(sp.DL1Latency),
		uint64(sp.Window), uint64(sp.WakeupExtra), uint64(sp.BranchRecovery), uint64(sp.WindowInsts),
		uint64(s.built), uint64(s.result.Cycles)} {
		p = binary.AppendUvarint(p, v)
	}
	p = append(p, snapKindWindowed)
	for _, v := range []uint64{uint64(s.insts), uint64(s.windows), uint64(s.peakBytes)} {
		p = binary.AppendUvarint(p, v)
	}
	return p
}

// denseV2Frame hand-encodes s as a version-2 snapshot, whose windowed
// body is the dense table of all 256 subset times.
func denseV2Frame(s *session, table []int64) []byte {
	p := binary.AppendUvarint(windowedPayload(s), uint64(len(table)))
	for _, t := range table {
		p = binary.AppendUvarint(p, uint64(t))
	}
	return snapFrame(snapVersion2, p)
}

// TestWindowedSnapshotVersion2Restores: a version-2 snapshot, whose
// windowed body is the dense 256-entry table, still restores and
// answers the windowed query surface exactly as the built session
// does — with no re-fold, since every subset arrives folded.
func TestWindowedSnapshotVersion2Restores(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "gzip", Seed: 3, TraceLen: 3000, Warmup: 500, WindowInsts: 512}
	e1 := New(Config{Workers: 1})
	defer e1.Close()
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := denseV2Frame(e1.sessionByKey(key), denseTable(t, spec))

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if got, err := e2.RestoreSession(ctx, bytes.NewReader(v2)); err != nil || got != key {
		t.Fatalf("restoring a version-2 snapshot: key %s, err %v", got, err)
	}
	mix := append(windowedQueryMix(spec), Query{Session: spec, Op: OpFull})
	for _, q := range mix {
		want, err := e1.Query(ctx, q)
		if err != nil {
			t.Fatalf("built %s: %v", q.Op, err)
		}
		got, err := e2.Query(ctx, q)
		if err != nil {
			t.Fatalf("restored %s: %v", q.Op, err)
		}
		if g, w := canonicalResponse(t, got), canonicalResponse(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s diverged after a version-2 restore:\n  built:    %s\n  restored: %s", q.Op, w, g)
		}
	}
	if m := e2.Metrics(); m.WindowedRefoldsTotal != 0 || m.WindowedBuildsTotal != 0 {
		t.Fatalf("version-2 restore re-folded %d times, built %d times", m.WindowedRefoldsTotal, m.WindowedBuildsTotal)
	}
}

// TestWindowedSnapshotRefoldsAfterRestore: a restored version-3
// session carries only the subsets folded before the snapshot; a query
// outside them re-folds the stream, and the answer matches the
// whole-graph session's byte for byte.
func TestWindowedSnapshotRefoldsAfterRestore(t *testing.T) {
	ctx := context.Background()
	whole := SessionSpec{Bench: "parser", Seed: 9, TraceLen: 3000, Warmup: 500}
	spec := whole
	spec.WindowInsts = 400
	e1 := New(Config{Workers: 1})
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if v := snap.Bytes()[4]; v != snapVersion3 {
		t.Fatalf("snapshot stamped version %d, want %d", v, snapVersion3)
	}

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if _, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	q := Query{Session: spec, Op: OpExecTime, Cats: []string{"dl1", "win", "bw"}}
	got, err := e2.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.WindowedRefoldsTotal != 1 || m.WindowedRefoldLanesTotal != 1 {
		t.Fatalf("restored miss: %d re-folds over %d lanes, want 1 over 1", m.WindowedRefoldsTotal, m.WindowedRefoldLanesTotal)
	}
	q.Session = whole
	want, err := e2.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := answerOnly(t, got), answerOnly(t, want); !bytes.Equal(g, w) {
		t.Fatalf("restored re-fold diverged:\n  whole:    %s\n  windowed: %s", w, g)
	}
}

// TestWindowedSnapshotRejectsBadEntries: a checksum-valid version-3
// windowed body whose entries break the format — too many, flags out
// of order, repeated or beyond the eight categories, the base missing
// or disagreeing with the cycles — is the sender's malformed input.
func TestWindowedSnapshotRejectsBadEntries(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "gzip", Seed: 3, TraceLen: 300, Warmup: 200, WindowInsts: 128}
	e := New(Config{Workers: 1})
	defer e.Close()
	key, err := e.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	s := e.sessionByKey(key)
	cycles := uint64(s.result.Cycles)
	payload := func(entries ...uint64) []byte {
		p := binary.AppendUvarint(windowedPayload(s), uint64(len(entries)/2))
		for _, v := range entries {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	body := func(entries ...uint64) []byte { return snapFrame(snapVersion3, payload(entries...)) }
	tooMany := binary.AppendUvarint(windowedPayload(s), 257)
	for f := uint64(0); f < 257; f++ {
		tooMany = binary.AppendUvarint(binary.AppendUvarint(tooMany, f), cycles)
	}
	for name, raw := range map[string][]byte{
		"257 entries":    snapFrame(snapVersion3, tooMany),
		"out of order":   body(0, cycles, 2, 1, 1, 1),
		"repeated flags": body(0, cycles, 1, 1, 1, 1),
		"flags 256":      body(0, cycles, 256, 1),
		"no base":        body(1, cycles),
		"base != cycles": body(0, cycles+1),
		"no entries":     body(),
		"trailing byte":  snapFrame(snapVersion3, append(payload(0, cycles), 0)),
	} {
		var ve *ValidationError
		if _, err := e.RestoreSession(ctx, bytes.NewReader(raw)); !errors.As(err, &ve) {
			t.Errorf("%s: got %v, want a *ValidationError", name, err)
		}
	}
	if _, err := e.RestoreSession(ctx, bytes.NewReader(body(0, cycles, 3, 7))); err != nil {
		t.Fatalf("well-formed sparse body: %v", err)
	}
}

// TestWindowedBreakdownThenSensitivityReplays: the long-trace study's
// shape on a fresh windowed session — a breakdown opens it, a
// sensitivity query follows. The breakdown builds and records the
// session's block log; the sensitivity query's misses replay it, with
// no trace generation or simulation at all, and answer exactly as the
// whole-graph session does.
func TestWindowedBreakdownThenSensitivityReplays(t *testing.T) {
	ctx := context.Background()
	whole := SessionSpec{Bench: "gzip", Seed: 7, TraceLen: 6000, Warmup: 500}
	spec := whole
	spec.WindowInsts = 1000
	e := New(Config{Workers: 2})
	defer e.Close()
	if _, err := e.Query(ctx, Query{Session: spec, Op: OpBreakdown}); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.WindowedLogBytes <= 0 {
		t.Fatalf("the build left %d log bytes held", m.WindowedLogBytes)
	}
	q := Query{Session: spec, Op: OpSensitivity, Cats: []string{"dl1", "win", "bmisp"}}
	faultinject.Enable(1) // no rules: count hits only
	got, err := e.Query(ctx, q)
	hits := faultinject.Snapshot().Hits
	faultinject.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if hits[faultinject.WorkloadGen] != 0 || hits[faultinject.OOOSim] != 0 || hits[faultinject.WindowReplay] == 0 {
		t.Fatalf("sensitivity after a breakdown: %d workload.gen, %d ooo.sim and %d window.replay hits, want 0, 0 and some",
			hits[faultinject.WorkloadGen], hits[faultinject.OOOSim], hits[faultinject.WindowReplay])
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 || m.WindowedReplaysTotal != 1 || m.WindowedRefoldsTotal != 1 {
		t.Fatalf("%d builds, %d replays, %d re-folds, want 1 of each", m.WindowedBuildsTotal, m.WindowedReplaysTotal, m.WindowedRefoldsTotal)
	}
	q.Session = whole
	want, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := answerOnly(t, got), answerOnly(t, want); !bytes.Equal(g, w) {
		t.Fatalf("replayed sensitivity diverged:\n  whole:    %s\n  windowed: %s", w, g)
	}
}

// TestWindowedLogHandOff runs replays on session A while session B's
// build takes the engine's one log slot. The replays in flight keep
// their own reference and answer byte-identically to the whole-graph
// session; B records into a fresh log, never into the one A's replays
// read (under -race, a write to it would also be a reported race); A's
// next miss re-simulates; and once no replay reads B's log, the next
// build recycles it.
func TestWindowedLogHandOff(t *testing.T) {
	ctx := context.Background()
	wholeA := SessionSpec{Bench: "mcf", Seed: 3, TraceLen: 8000, Warmup: 500}
	specA := wholeA
	specA.WindowInsts = 512
	// B's trace is longer than A's, so a recording into A's log would
	// show in its instruction count too.
	specB := SessionSpec{Bench: "gcc", Seed: 4, TraceLen: 9000, Warmup: 500, WindowInsts: 512}
	specC := specB
	specC.Seed = 5
	e := New(Config{Workers: 4, MaxSessions: 8})
	defer e.Close()
	keyA, err := e.Warm(ctx, specA)
	if err != nil {
		t.Fatal(err)
	}
	held := func() *heldLog {
		e.logs.mu.Lock()
		defer e.logs.mu.Unlock()
		return e.logs.held
	}
	hA := held()
	if hA == nil || hA.key != keyA {
		t.Fatal("A's build left no log in the slot")
	}
	logA, instsA := hA.log, hA.log.Insts()

	// Each replay on A holds its reference at the gate until B's build
	// has taken the slot, then folds while B records.
	const replays = 3
	entered := make(chan struct{}, replays)
	gate := make(chan struct{})
	e.logs.mu.Lock()
	e.logs.onReplay = func() {
		entered <- struct{}{}
		<-gate
	}
	e.logs.mu.Unlock()
	missesA := []Query{
		{Session: specA, Op: OpExecTime, Cats: []string{"dl1", "win"}},
		{Session: specA, Op: OpCost, Cats: []string{"dmiss", "bw"}},
		{Session: specA, Op: OpSensitivity, Cats: []string{"bmisp"}},
	}
	got := make([]*Response, len(missesA))
	errs := make([]error, len(missesA))
	var wg sync.WaitGroup
	for i, q := range missesA {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.Query(ctx, q)
		}()
	}
	for range replays {
		<-entered
	}
	buildB := make(chan error, 1)
	go func() {
		_, err := e.Warm(ctx, specB)
		buildB <- err
	}()
	keyB, _ := specB.Key()
	for h := held(); h != nil && h.key != keyB; h = held() {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if err := <-buildB; err != nil {
		t.Fatal(err)
	}
	e.logs.mu.Lock()
	e.logs.onReplay = nil
	e.logs.mu.Unlock()

	for i, q := range missesA {
		if errs[i] != nil {
			t.Fatalf("replay %s on A: %v", q.Op, errs[i])
		}
		q.Session = wholeA
		want, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := answerOnly(t, got[i]), answerOnly(t, want); !bytes.Equal(g, w) {
			t.Fatalf("replay %s on A diverged while B built:\n  whole:    %s\n  windowed: %s", q.Op, w, g)
		}
	}
	hB := held()
	if hB == nil || hB.key != keyB || hB.log == logA {
		t.Fatal("B's build did not record into a fresh log while A's replays read A's")
	}
	if !logA.Complete() || logA.Insts() != instsA {
		t.Fatal("A's log changed under its replays")
	}
	m := e.Metrics()
	if m.WindowedReplaysTotal != replays || m.WindowedBuildsTotal != 2 {
		t.Fatalf("%d replays over %d builds, want %d over 2", m.WindowedReplaysTotal, m.WindowedBuildsTotal, replays)
	}

	// A's next miss re-simulates.
	q := Query{Session: specA, Op: OpExecTime, Cats: []string{"dl1", "dmiss", "win"}}
	resp, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after := e.Metrics(); after.WindowedReplaysTotal != m.WindowedReplaysTotal || after.WindowedRefoldsTotal != m.WindowedRefoldsTotal+1 {
		t.Fatalf("A's miss after B's build: %d replays, %d re-folds, want %d and %d",
			after.WindowedReplaysTotal, after.WindowedRefoldsTotal, m.WindowedReplaysTotal, m.WindowedRefoldsTotal+1)
	}
	q.Session = wholeA
	want, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := answerOnly(t, resp), answerOnly(t, want); !bytes.Equal(g, w) {
		t.Fatalf("re-simulated miss on A diverged:\n  whole:    %s\n  windowed: %s", w, g)
	}

	// No replay reads B's log now: C's build records into it.
	keyC, err := e.Warm(ctx, specC)
	if err != nil {
		t.Fatal(err)
	}
	if hC := held(); hC == nil || hC.key != keyC || hC.log != hB.log {
		t.Fatal("C's build did not recycle B's unread log")
	}
}
