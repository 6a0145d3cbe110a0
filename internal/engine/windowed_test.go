package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"icost/internal/faultinject"
	"icost/internal/window"
)

// windowedQueryMix is the whole query surface: every op but
// sensitivity, which sensitivity_test.go covers.
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
		{Session: spec, Op: OpSlack},
	}
}

// answerOnly renders just the analysis payload of a response —
// stripping session identity, serving provenance and the build pass's
// shape — so an engine answer compares with the library's
// (reference.answer).
func answerOnly(t testing.TB, resp *Response) []byte {
	t.Helper()
	cp := *resp
	cp.SessionKey = ""
	cp.Elapsed = 0
	cp.Cached = false
	cp.Windows = 0
	cp.PeakBytes = 0
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sameAsLibrary fails unless resp answers q as the library does.
func sameAsLibrary(t testing.TB, ref *reference, q Query, resp *Response) {
	t.Helper()
	if g, w := answerOnly(t, resp), ref.answer(t, q); !bytes.Equal(g, w) {
		t.Fatalf("%s %v diverged from the library:\n  library: %s\n  engine:  %s", q.Op, q.Cats, w, g)
	}
}

// TestWindowedSessionMatchesWholeGraph: a session streamed in blocks
// answers the whole query surface, slack included, identically to the
// library's whole-graph walk — the engine-level restatement of the
// windowed-exactness property — and reports its build's block count
// and peak bytes.
func TestWindowedSessionMatchesWholeGraph(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()

	spec := SessionSpec{Bench: "gcc", Seed: 11, TraceLen: 5000, Warmup: 1000, WindowInsts: 777} // 777 does not divide 5000
	ref := newReference(t, spec)
	for _, q := range windowedQueryMix(spec) {
		got, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		if wantW := (spec.TraceLen + spec.WindowInsts - 1) / spec.WindowInsts; got.Windows != wantW {
			t.Fatalf("%s: %d windows, want %d", q.Op, got.Windows, wantW)
		}
		if got.PeakBytes <= 0 {
			t.Fatalf("%s: peak bytes %d", q.Op, got.PeakBytes)
		}
		sameAsLibrary(t, ref, q, got)
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 {
		t.Fatalf("windowed builds %d, want 1", m.WindowedBuildsTotal)
	}
}

// TestWindowedSpecValidation pins the spec-level contract for
// window_insts: a negative one is refused; 0 resolves to the default
// 4096-instruction block, one session with the explicit 4096, and
// another block size is another session. A machine whose wakeup_extra
// voids the carry argument answers every op, slack included, exactly —
// its passes hold the whole stream.
func TestWindowedSpecValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()

	bad := SessionSpec{Bench: "gcc", TraceLen: 500, WindowInsts: -1}
	var ve *ValidationError
	if _, err := e.Warm(ctx, bad); !errors.As(err, &ve) {
		t.Fatalf("negative window_insts: got %v", err)
	}
	for _, windowInsts := range []int{0, 64} {
		edge := SessionSpec{Bench: "gcc", TraceLen: 500, WakeupExtra: 100, WindowInsts: windowInsts}
		ref := newReference(t, edge)
		for _, q := range []Query{{Op: OpBreakdown}, {Op: OpSlack}, {Op: OpSensitivity, Cats: []string{"dl1"}}} {
			q.Session = edge
			resp, err := e.Query(ctx, q)
			if err != nil {
				t.Fatalf("wakeup_extra 100, window_insts %d, %s: %v", windowInsts, q.Op, err)
			}
			sameAsLibrary(t, ref, q, resp)
		}
	}
	a := SessionSpec{Bench: "gcc", TraceLen: 500}
	b, c := a, a
	b.WindowInsts, c.WindowInsts = defaultWindowInsts, 128
	ka, _ := a.Key()
	kb, _ := b.Key()
	kc, _ := c.Key()
	if ka != kb || ka == kc {
		t.Fatalf("keys: default %s, 4096 %s, 128 %s; want the first two equal, the third apart", ka, kb, kc)
	}
}

// TestFoldBudgetSplitsPasses: a batch whose rings would pass
// foldBudget folds over several passes, each within it, and still
// answers exactly. At wakeup_extra 100 a pass holds a ring row per
// instruction, so a full breakdown's 256 lanes over 30k instructions
// (184 MB of rings in one pass) split; the default machine's stay one
// pass.
func TestFoldBudgetSplitsPasses(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		spec   SessionSpec
		passes int64
	}{
		{SessionSpec{Bench: "gcc", Seed: 5, TraceLen: 30000, Warmup: 1000}, 1},
		{SessionSpec{Bench: "gcc", Seed: 5, TraceLen: 30000, Warmup: 1000, WakeupExtra: 100}, 12},
	} {
		spec, _ := tc.spec.normalize()
		per, cfg := spec.lanesPerPass(), spec.machine().Graph
		if ring := int64(per+1) * 24 * int64(cfg.FoldRows(spec.TraceLen)); ring > foldBudget {
			t.Fatalf("wakeup_extra %d: %d lanes a pass hold %d bytes of rings, budget %d", spec.WakeupExtra, per, ring, foldBudget)
		}
		e := New(Config{Workers: 2})
		q := Query{Session: spec, Op: OpFull}
		resp, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if m := e.Metrics(); m.BatchesTotal != tc.passes || m.BatchLanesTotal != 256 {
			t.Fatalf("wakeup_extra %d: %d passes over %d lanes, want %d over 256", spec.WakeupExtra, m.BatchesTotal, m.BatchLanesTotal, tc.passes)
		}
		e.Close()
		sameAsLibrary(t, newReference(t, spec), q, resp)
	}
}

// TestHugeWindowResolvesToStream: a request's window is capped at the
// stream's length, warmup included, which changes no answer — a window
// that long never fills — and keeps a huge window from sizing rings or
// overflowing Window × WindowIdealFactor. Sessions at windows up to
// MaxInt64, in default and 512-instruction blocks, answer a matrix
// exactly as the library does at 1<<20, and hold no more than at the
// stream's length.
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
	ref := newReference(t, SessionSpec{Bench: "gcc", Seed: 4, TraceLen: 2000, Warmup: 1000, Window: 1 << 20})
	want := ref.answer(t, Query{Op: OpMatrix})
	for _, windowInsts := range []int{0, 512} {
		stream := query(spec.Warmup+spec.TraceLen, windowInsts)
		for _, window := range []int{1 << 16, 1 << 40, 1 << 62, math.MaxInt64} {
			resp := query(window, windowInsts)
			if got := answerOnly(t, resp); !bytes.Equal(got, want) {
				t.Fatalf("window %d, window_insts %d: matrix diverged from the library at window 1<<20:\n  want %s\n  got  %s",
					window, windowInsts, want, got)
			}
			if resp.PeakBytes > stream.PeakBytes {
				t.Fatalf("window %d, window_insts %d: peak bytes %d, %d at the stream's length",
					window, windowInsts, resp.PeakBytes, stream.PeakBytes)
			}
		}
	}
}

// TestWindowedSnapshotRoundTrip: a session in 512-instruction blocks
// snapshots, restores answering the full query surface byte-identically
// (its slack simulating in the restored engine), and re-snapshots
// bit-for-bit.
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
}

// TestWindowedRefolds pins which idealizations a session folds, and
// when. A fresh session's build folds the base and exactly what its
// first query reads, so that query — whatever its op — runs no re-fold
// and answers byte-identically to the library. After a base-only Warm,
// a query needing anything else re-folds the stream once for all of
// its misses, two concurrent queries missing the same subset share one
// re-fold, and a sensitivity query re-folds only the grid points the
// memo lacks. Every pass, the build's included, counts as one batch.
func TestWindowedRefolds(t *testing.T) {
	ctx := context.Background()
	windowed := SessionSpec{Bench: "mcf", Seed: 3, TraceLen: 3000, Warmup: 500, WindowInsts: 512}
	ref := newReference(t, windowed)

	same := func(e *Engine, q Query) {
		t.Helper()
		q.Session = windowed
		got, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s %v: %v", q.Op, q.Cats, err)
		}
		sameAsLibrary(t, ref, q, got)
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
		if m.BatchesTotal != 1 || m.BatchLanesTotal != tc.lanes {
			t.Fatalf("%s %v: %d batches over %d lanes, want the build's 1 over %d",
				tc.q.Op, tc.q.Cats, m.BatchesTotal, m.BatchLanesTotal, tc.lanes)
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
	// lanes, and one more batch of five lanes.
	before := e.Metrics()
	full := Query{Session: windowed, Op: OpFull, Cats: []string{"dl1", "win", "bw"}}
	if _, err := e.Query(ctx, full); err != nil {
		t.Fatal(err)
	}
	if n, lanes := refolds(e); n != 3 || lanes != 15 {
		t.Fatalf("full over three categories: %d re-folds over %d lanes in all, want 3 over 15", n, lanes)
	}
	if m := e.Metrics(); m.BatchesTotal != before.BatchesTotal+1 || m.BatchLanesTotal != before.BatchLanesTotal+5 {
		t.Fatalf("the re-fold counted %d batches over %d lanes, want 1 over 5",
			m.BatchesTotal-before.BatchesTotal, m.BatchLanesTotal-before.BatchLanesTotal)
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

// snapFrame frames a payload under an explicit codec version.
func snapFrame(version byte, payload []byte) []byte {
	frame := []byte{'I', 'C', 'S', 'S', version}
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, snapCRC))
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	return append(frame, payload...)
}

// sessionPayload hand-encodes a session's version-4 payload up to and
// including its run shape; the caller appends the memo entries.
func sessionPayload(s *session) []byte {
	sp := s.spec
	p := binary.AppendUvarint(nil, uint64(len(sp.Bench)))
	p = append(p, sp.Bench...)
	for _, v := range []uint64{sp.Seed, uint64(sp.TraceLen), uint64(sp.Warmup), uint64(sp.DL1Latency),
		uint64(sp.Window), uint64(sp.WakeupExtra), uint64(sp.BranchRecovery), uint64(sp.WindowInsts),
		uint64(s.built), uint64(s.cycles), uint64(s.insts), uint64(s.windows), uint64(s.peakBytes)} {
		p = binary.AppendUvarint(p, v)
	}
	return p
}

// v3Frame hand-encodes s as a version-3 snapshot: the payload of
// version 4 with the windowed kind byte (1) before the run shape.
func v3Frame(s *session) []byte {
	sp := s.spec
	p := binary.AppendUvarint(nil, uint64(len(sp.Bench)))
	p = append(p, sp.Bench...)
	for _, v := range []uint64{sp.Seed, uint64(sp.TraceLen), uint64(sp.Warmup), uint64(sp.DL1Latency),
		uint64(sp.Window), uint64(sp.WakeupExtra), uint64(sp.BranchRecovery), uint64(sp.WindowInsts),
		uint64(s.built), uint64(s.cycles)} {
		p = binary.AppendUvarint(p, v)
	}
	p = append(p, 1)
	for _, v := range []uint64{uint64(s.insts), uint64(s.windows), uint64(s.peakBytes), 1, 0, uint64(s.cycles)} {
		p = binary.AppendUvarint(p, v)
	}
	return snapFrame(3, p)
}

// TestOldSnapshotVersionsRefused: frames of versions 1-3, whose
// readers went with the whole-graph session kind, are a
// *SnapshotVersionError (a 426 to the router), and the snapshot
// directory counts them as load errors; the session then builds on
// demand and answers as the library does.
func TestOldSnapshotVersionsRefused(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "gzip", Seed: 3, TraceLen: 3000, Warmup: 500, WindowInsts: 512}
	e1 := New(Config{Workers: 1})
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	v3 := v3Frame(e1.sessionByKey(key))
	e1.Close()

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	for _, version := range []byte{1, 2, 3} {
		frame := append([]byte(nil), v3...)
		frame[4] = version
		var ver *SnapshotVersionError
		if _, err := e2.RestoreSession(ctx, bytes.NewReader(frame)); !errors.As(err, &ver) || ver.Version != version {
			t.Fatalf("version %d frame: got %v, want a *SnapshotVersionError", version, err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, key+".icss"), v3, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := e2.LoadSnapshots(ctx, dir); n != 0 || err != nil {
		t.Fatalf("loading a version-3 file: %d loaded, %v", n, err)
	}
	if m := e2.Metrics(); m.SnapshotLoadErrorsTotal != 1 || m.SessionsLive != 0 {
		t.Fatalf("version-3 file: %d load errors, %d live sessions; want 1 and 0", m.SnapshotLoadErrorsTotal, m.SessionsLive)
	}
	q := Query{Session: spec, Op: OpBreakdown}
	resp, err := e2.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameAsLibrary(t, newReference(t, spec), q, resp)
}

// TestWindowedSnapshotRefoldsAfterRestore: a restored session carries
// only the subsets folded before the snapshot, and no block log. Its
// first miss simulates and records one; its second replays it; both
// answer as the library does.
func TestWindowedSnapshotRefoldsAfterRestore(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "parser", Seed: 9, TraceLen: 3000, Warmup: 500, WindowInsts: 400}
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
	if v := snap.Bytes()[4]; v != snapVersion4 {
		t.Fatalf("snapshot stamped version %d, want %d", v, snapVersion4)
	}

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if _, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.WindowedLogBytes != 0 {
		t.Fatalf("a restored session holds %d log bytes", m.WindowedLogBytes)
	}
	ref := newReference(t, spec)
	for i, q := range []Query{
		{Session: spec, Op: OpExecTime, Cats: []string{"dl1", "win", "bw"}},
		{Session: spec, Op: OpExecTime, Cats: []string{"dmiss", "bmisp"}},
	} {
		got, err := e2.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		m := e2.Metrics()
		if m.WindowedRefoldsTotal != int64(i+1) || m.WindowedReplaysTotal != int64(i) || m.WindowedLogBytes <= 0 {
			t.Fatalf("restored miss %d: %d re-folds, %d replays, %d log bytes; want %d, %d and some",
				i, m.WindowedRefoldsTotal, m.WindowedReplaysTotal, m.WindowedLogBytes, i+1, i)
		}
		sameAsLibrary(t, ref, q, got)
	}
}

// TestWindowedSnapshotRejectsBadEntries: a checksum-valid version-4
// body whose entries break the format — too many, flags out of order,
// repeated or beyond the eight categories, the base missing or
// disagreeing with the cycles — is the sender's malformed input.
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
	cycles := uint64(s.cycles)
	payload := func(entries ...uint64) []byte {
		p := binary.AppendUvarint(sessionPayload(s), uint64(len(entries)/2))
		for _, v := range entries {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	body := func(entries ...uint64) []byte { return snapFrame(snapVersion4, payload(entries...)) }
	tooMany := binary.AppendUvarint(sessionPayload(s), 257)
	for f := uint64(0); f < 257; f++ {
		tooMany = binary.AppendUvarint(binary.AppendUvarint(tooMany, f), cycles)
	}
	for name, raw := range map[string][]byte{
		"257 entries":    snapFrame(snapVersion4, tooMany),
		"out of order":   body(0, cycles, 2, 1, 1, 1),
		"repeated flags": body(0, cycles, 1, 1, 1, 1),
		"flags 256":      body(0, cycles, 256, 1),
		"no base":        body(1, cycles),
		"base != cycles": body(0, cycles+1),
		"no entries":     body(),
		"trailing byte":  snapFrame(snapVersion4, append(payload(0, cycles), 0)),
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
// shape on a fresh session — a breakdown opens it, a sensitivity query
// follows. The breakdown builds and records the session's block log;
// the sensitivity query's misses replay it, with no trace generation or
// simulation at all, and answer exactly as the library does.
func TestWindowedBreakdownThenSensitivityReplays(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "gzip", Seed: 7, TraceLen: 6000, Warmup: 500, WindowInsts: 1000}
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
	sameAsLibrary(t, newReference(t, spec), q, got)
}

// logOf reports whether the engine holds a block log for key, and it.
func logOf(e *Engine, key string) (*window.Log, bool) {
	e.logs.mu.Lock()
	defer e.logs.mu.Unlock()
	el, ok := e.logs.logs[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*heldLog).log, true
}

// TestWindowedLogHandOff runs replays on session A while session B's
// build records a log that pushes A's out of the engine's log budget.
// The replays in flight read A's log to the end and answer
// byte-identically to the library; A's log is evicted but unchanged (a
// complete log is never recycled: under -race, a write to it would
// also be a reported race); the budget holds B's; A's next miss
// simulates and records again; and a session evicted from the store
// drops its log.
func TestWindowedLogHandOff(t *testing.T) {
	ctx := context.Background()
	specA := SessionSpec{Bench: "mcf", Seed: 3, TraceLen: 200_000, Warmup: 500, WindowInsts: 4096}
	// B's log alone takes the budget, so holding it evicts A's.
	specB := SessionSpec{Bench: "gcc", Seed: 4, TraceLen: 300_000, Warmup: 500, WindowInsts: 4096}
	e := New(Config{Workers: 4, MaxSessions: 2})
	defer e.Close()
	keyA, err := e.Warm(ctx, specA)
	if err != nil {
		t.Fatal(err)
	}
	logA, ok := logOf(e, keyA)
	if !ok {
		t.Fatal("A's build left no log held")
	}
	instsA, bytesA := logA.Insts(), logA.Bytes()

	// Each replay on A holds its log at the gate until B's build has
	// evicted it, then folds while B's log is held.
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
	keyB, err := e.Warm(ctx, specB)
	if err != nil {
		t.Fatal(err)
	}
	if _, held := logOf(e, keyA); held {
		t.Fatal("B's log did not push A's out of the budget")
	}
	if _, held := logOf(e, keyB); !held {
		t.Fatal("the budget does not hold B's log, the newest")
	}
	close(gate)
	wg.Wait()
	e.logs.mu.Lock()
	e.logs.onReplay = nil
	e.logs.mu.Unlock()

	ref := newReference(t, specA)
	for i, q := range missesA {
		if errs[i] != nil {
			t.Fatalf("replay %s on A: %v", q.Op, errs[i])
		}
		sameAsLibrary(t, ref, q, got[i])
	}
	if !logA.Complete() || logA.Insts() != instsA || logA.Bytes() != bytesA {
		t.Fatal("A's log changed under its replays")
	}
	m := e.Metrics()
	if m.WindowedReplaysTotal != replays || m.WindowedBuildsTotal != 2 {
		t.Fatalf("%d replays over %d builds, want %d over 2", m.WindowedReplaysTotal, m.WindowedBuildsTotal, replays)
	}
	if logB, _ := logOf(e, keyB); m.WindowedLogBytes != logB.Bytes() {
		t.Fatalf("windowed_log_bytes %d, B's log %d", m.WindowedLogBytes, logB.Bytes())
	}

	// A's next miss simulates and records a log again.
	q := Query{Session: specA, Op: OpExecTime, Cats: []string{"dl1", "dmiss", "win"}}
	resp, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after := e.Metrics(); after.WindowedReplaysTotal != m.WindowedReplaysTotal || after.WindowedRefoldsTotal != m.WindowedRefoldsTotal+1 {
		t.Fatalf("A's miss after B's build: %d replays, %d re-folds, want %d and %d",
			after.WindowedReplaysTotal, after.WindowedRefoldsTotal, m.WindowedReplaysTotal, m.WindowedRefoldsTotal+1)
	}
	if _, held := logOf(e, keyA); !held {
		t.Fatal("A's simulated miss recorded no log")
	}
	sameAsLibrary(t, ref, q, resp)

	// A third session evicts B, the least recently used, from the
	// store, and B's log goes with it.
	if _, err := e.Warm(ctx, SessionSpec{Bench: "gzip", Seed: 5, TraceLen: 2000, Warmup: 500}); err != nil {
		t.Fatal(err)
	}
	if _, held := logOf(e, keyB); held {
		t.Fatal("B left the store but its log is still held")
	}
}
