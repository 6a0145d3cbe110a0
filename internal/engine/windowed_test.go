package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/bits"
	"sync"
	"testing"

	"icost/internal/depgraph"
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

// TestWindowedRefolds pins which queries a windowed session answers
// from its build and which re-fold the stream. The build folds the
// base, the singles and the pairs, so every single cost, every pair
// icost, a default breakdown around any focus and a matrix over all
// eight categories are memo reads; a full breakdown over three
// categories misses only the triple and re-folds once for it; two
// concurrent queries missing the same subset share one re-fold; and a
// sensitivity query re-folds only the grid points the memo lacks. Every
// answer matches the whole-graph session's byte for byte.
func TestWindowedRefolds(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()
	whole := SessionSpec{Bench: "mcf", Seed: 3, TraceLen: 3000, Warmup: 500}
	windowed := whole
	windowed.WindowInsts = 512

	key, err := e.Warm(ctx, windowed)
	if err != nil {
		t.Fatal(err)
	}
	known := e.sessionByKey(key).analyzer.Known()
	if len(known) != 37 {
		t.Fatalf("build folded %d subsets, want 37", len(known))
	}
	for f := range known {
		if bits.OnesCount(uint(f)) > 2 {
			t.Fatalf("build folded %v, outside the second-order lattice", f)
		}
	}

	same := func(q Query) {
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
	refolds := func() (int64, int64) {
		m := e.Metrics()
		return m.WindowedRefoldsTotal, m.WindowedRefoldLanesTotal
	}

	names := depgraph.FlagNames()
	for i, a := range names {
		same(Query{Op: OpBreakdown, Focus: a})
		same(Query{Op: OpCost, Cats: []string{a}})
		for _, b := range names[i+1:] {
			same(Query{Op: OpICost, Cats: []string{a, b}})
		}
	}
	same(Query{Op: OpMatrix})
	if n, lanes := refolds(); n != 0 || lanes != 0 {
		t.Fatalf("lattice queries ran %d re-folds over %d lanes, want none", n, lanes)
	}
	// A re-fold is not a graph walk: the batch counters stay put.
	batches := e.Metrics().BatchesTotal
	full := Query{Op: OpFull, Cats: []string{"dl1", "win", "bw"}}
	if _, err := e.Query(ctx, Query{Session: windowed, Op: full.Op, Cats: full.Cats}); err != nil {
		t.Fatal(err)
	}
	if n, lanes := refolds(); n != 1 || lanes != 1 {
		t.Fatalf("full over three categories: %d re-folds over %d lanes, want 1 over 1", n, lanes)
	}
	if got := e.Metrics().BatchesTotal; got != batches {
		t.Fatalf("a windowed re-fold fed the graph batch counter: %d -> %d", batches, got)
	}
	same(full)

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
	if n, lanes := refolds(); n != 2 || lanes != 2 {
		t.Fatalf("two concurrent misses of one subset: %d re-folds over %d lanes in all, want 2 over 2", n, lanes)
	}
	for _, q := range pair {
		same(q)
	}

	// Sensitivity reads the same memo: α=0 is a single's binary entry
	// and α=1 the base, so dl1 and win over the default grid re-fold
	// their six interior samples in one pass, α=0.6 adds two, and dl1
	// over {0, 0.25, 1} is all memo reads.
	for _, tc := range []struct {
		q             Query
		passes, lanes int64
	}{
		{Query{Op: OpSensitivity, Cats: []string{"dl1", "win"}}, 1, 6},
		{Query{Op: OpSensitivity, Cats: []string{"dl1", "win"}, Alphas: []float64{0, 0.5, 0.6, 1}}, 1, 2},
		{Query{Op: OpSensitivity, Cats: []string{"dl1"}, Alphas: []float64{0, 0.25, 1}}, 0, 0},
	} {
		n0, l0 := refolds()
		same(tc.q)
		if n, lanes := refolds(); n-n0 != tc.passes || lanes-l0 != tc.lanes {
			t.Fatalf("sensitivity %v over %v: %d re-folds over %d lanes, want %d over %d",
				tc.q.Cats, tc.q.Alphas, n-n0, lanes-l0, tc.passes, tc.lanes)
		}
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 {
		t.Fatalf("windowed builds %d, want 1", m.WindowedBuildsTotal)
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
	wres, err := window.Analyze(context.Background(), spec.windowRequest(0), all)
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
