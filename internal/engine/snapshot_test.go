package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icost/internal/faultinject"
)

// snapshotQueryMix is the full query surface a restored session must
// answer identically: scalar costs, an interaction, a focused
// breakdown, and the slack distribution.
func snapshotQueryMix(spec SessionSpec) []Query {
	return []Query{
		{Session: spec, Op: OpCost, Cats: []string{"dl1"}},
		{Session: spec, Op: OpCost, Cats: []string{"win", "bw"}},
		{Session: spec, Op: OpICost, Cats: []string{"dl1", "win"}},
		{Session: spec, Op: OpBreakdown},
		{Session: spec, Op: OpSlack},
	}
}

// canonicalResponse strips the serving-dependent fields (latency,
// cache provenance) and renders the rest as JSON for byte comparison.
func canonicalResponse(t *testing.T, resp *Response) []byte {
	t.Helper()
	cp := *resp
	cp.Elapsed = 0
	cp.Cached = false
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotRoundTripProperty: for every benchmark x seed in the
// grid, a session snapshot restores into a session that answers the
// full query mix byte-identically, and re-snapshotting the restored
// session reproduces the original snapshot bit-for-bit.
func TestSnapshotRoundTripProperty(t *testing.T) {
	ctx := context.Background()
	benches := []string{"gzip", "mcf", "vpr"}
	seeds := []uint64{42, 7, 9}

	for _, bench := range benches {
		for _, seed := range seeds {
			spec := SessionSpec{Bench: bench, Seed: seed, TraceLen: 4000, Warmup: 2000}

			e1 := New(Config{Workers: 2, MaxSessions: 2})
			key, err := e1.Warm(ctx, spec)
			if err != nil {
				t.Fatalf("%s/%d: warm: %v", bench, seed, err)
			}
			var want [][]byte
			for _, q := range snapshotQueryMix(spec) {
				resp, err := e1.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s/%d: %s: %v", bench, seed, q.Op, err)
				}
				want = append(want, canonicalResponse(t, resp))
			}
			var snap bytes.Buffer
			if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
				t.Fatalf("%s/%d: snapshot: %v", bench, seed, err)
			}
			e1.Close()

			e2 := New(Config{Workers: 2, MaxSessions: 2})
			gotKey, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("%s/%d: restore: %v", bench, seed, err)
			}
			if gotKey != key {
				t.Fatalf("%s/%d: restored key %s, want %s", bench, seed, gotKey, key)
			}
			if m := e2.Metrics(); m.SessionsLive != 1 {
				t.Fatalf("%s/%d: restored engine has %d live sessions", bench, seed, m.SessionsLive)
			}
			for i, q := range snapshotQueryMix(spec) {
				resp, err := e2.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s/%d: restored %s: %v", bench, seed, q.Op, err)
				}
				if got := canonicalResponse(t, resp); !bytes.Equal(got, want[i]) {
					t.Fatalf("%s/%d: %s diverged after restore:\n  built:    %s\n  restored: %s",
						bench, seed, q.Op, want[i], got)
				}
			}
			// The restored engine never rebuilt: every answer came off
			// the restored graph.
			if m := e2.Metrics(); m.SessionBuildP50us != 0 {
				t.Fatalf("%s/%d: restored engine ran a cold build", bench, seed)
			}

			// Bit-identical re-encoding: the snapshot is canonical.
			var snap2 bytes.Buffer
			if err := e2.SnapshotSession(ctx, key, &snap2); err != nil {
				t.Fatalf("%s/%d: re-snapshot: %v", bench, seed, err)
			}
			if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
				t.Fatalf("%s/%d: re-snapshot differs (%d vs %d bytes)",
					bench, seed, snap.Len(), snap2.Len())
			}
			e2.Close()
		}
	}
}

func TestSnapshotSaveLoadDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	specs := []SessionSpec{
		{Bench: "gzip", TraceLen: 3000, Warmup: 1000},
		{Bench: "mcf", TraceLen: 3000, Warmup: 1000},
	}

	e1 := New(Config{Workers: 2})
	for _, sp := range specs {
		if _, err := e1.Warm(ctx, sp); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e1.SaveSnapshots(ctx, dir)
	if err != nil || n != len(specs) {
		t.Fatalf("SaveSnapshots = %d, %v", n, err)
	}
	if m := e1.Metrics(); m.SnapshotsSavedTotal != int64(len(specs)) {
		t.Fatalf("save metric: %+v", m)
	}
	e1.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "*.icss"))
	if len(files) != len(specs) {
		t.Fatalf("snapshot dir holds %v", files)
	}
	// Startup tolerates junk alongside snapshots: non-snapshot files
	// are ignored, corrupt snapshots are skipped and counted.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), mustRead(t, files[0])...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "corrupt.icss"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Workers: 2})
	defer e2.Close()
	loaded, err := e2.LoadSnapshots(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(specs) {
		t.Fatalf("loaded %d sessions, want %d", loaded, len(specs))
	}
	m := e2.Metrics()
	if m.SnapshotsLoadedTotal != int64(len(specs)) || m.SnapshotLoadErrorsTotal != 1 {
		t.Fatalf("load metrics: %+v", m)
	}
	for _, sp := range specs {
		if _, err := e2.Query(ctx, Query{Session: sp, Op: OpCost, Cats: []string{"dl1"}}); err != nil {
			t.Fatalf("restored %s: %v", sp.Bench, err)
		}
	}
	if m := e2.Metrics(); m.SessionBuildP50us != 0 {
		t.Fatal("restored engine ran a cold build")
	}

	// A missing directory is an empty fleet, not an error.
	if n, err := e2.LoadSnapshots(ctx, filepath.Join(dir, "nope")); n != 0 || err != nil {
		t.Fatalf("missing dir: %d, %v", n, err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000}
	key, err := e.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	fresh := func() *Engine { return New(Config{Workers: 1}) }
	check := func(name string, raw []byte) {
		e2 := fresh()
		defer e2.Close()
		if _, err := e2.RestoreSession(ctx, bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: corrupt snapshot restored", name)
		}
		if m := e2.Metrics(); m.SessionsLive != 0 {
			t.Errorf("%s: corrupt snapshot left a live session", name)
		}
	}
	check("empty", nil)
	check("bad magic", []byte("JCSS\x02junk"))
	check("bad version", []byte("ICSS\x09junk"))
	check("truncated", good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-5] ^= 0x01
	check("bit flip", flipped)
	// A payload length disagreeing with the checksum must fail (the
	// length uvarint starts right after the 5-byte magic + 4-byte CRC).
	lengthLie := append([]byte(nil), good...)
	lengthLie[9]++
	check("length lie", lengthLie)

	// The unknown-session path errors cleanly too.
	if err := e.SnapshotSession(ctx, "deadbeef00000000", &bytes.Buffer{}); err == nil {
		t.Fatal("snapshot of unknown session succeeded")
	}
}

// TestSnapshotTypedErrors pins the two decode failures a replication
// router must tell apart: a codec-version mismatch (the replica runs
// an older build — replication to it is pointless until it upgrades)
// and a checksum mismatch (the bytes were damaged in transit — a
// retry can succeed). Each must surface as its own typed error, never
// as the other or as an opaque string.
func TestSnapshotTypedErrors(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 1})
	defer e.Close()
	key, err := e.Warm(ctx, SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	restore := func(raw []byte) error {
		e2 := New(Config{Workers: 1})
		defer e2.Close()
		_, err := e2.RestoreSession(ctx, bytes.NewReader(raw))
		return err
	}

	// Byte 4 is the codec version in the ICSS frame.
	future := append([]byte(nil), good...)
	future[4] = 0x7f
	err = restore(future)
	var sver *SnapshotVersionError
	if !errors.As(err, &sver) {
		t.Fatalf("unknown version: got %T (%v), want *SnapshotVersionError", err, err)
	}
	if sver.Version != 0x7f {
		t.Fatalf("version error reports %d, want 127", sver.Version)
	}
	var scrc *SnapshotChecksumError
	if errors.As(err, &scrc) {
		t.Fatalf("version mismatch misreported as checksum error: %v", err)
	}

	// Damaging the payload (past the 5-byte magic + 4-byte CRC + length
	// prefix) must fail the CRC, not the version dispatch.
	damaged := append([]byte(nil), good...)
	damaged[len(damaged)-1] ^= 0x01
	err = restore(damaged)
	if !errors.As(err, &scrc) {
		t.Fatalf("damaged payload: got %T (%v), want *SnapshotChecksumError", err, err)
	}
	if scrc.Want == scrc.Got {
		t.Fatalf("checksum error carries equal sums: %+v", scrc)
	}
	if errors.As(err, &sver) {
		t.Fatalf("checksum mismatch misreported as version error: %v", err)
	}
}

// TestSnapshotLiveSessionWins: restoring a snapshot whose key is
// already live keeps the live session and reports the key.
func TestSnapshotLiveSessionWins(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000}
	key, err := e.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}
	gotKey, err := e.RestoreSession(ctx, bytes.NewReader(snap.Bytes()))
	if err != nil || gotKey != key {
		t.Fatalf("RestoreSession = %s, %v", gotKey, err)
	}
	m := e.Metrics()
	if m.SessionsLive != 1 || m.SnapshotsLoadedTotal != 0 {
		t.Fatalf("live-session restore: %+v", m)
	}
}

// TestChaosSnapshotFaults drives the fleet.snapshot injection point
// through both the encode and decode paths.
func TestChaosSnapshotFaults(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Disable()
	ctx := context.Background()
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000}
	key, err := e.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}

	errBoom := errors.New("chaos: snapshot fault")
	faultinject.Enable(1, faultinject.Rule{Point: faultinject.FleetSnapshot, Err: errBoom})
	if err := e.SnapshotSession(ctx, key, &bytes.Buffer{}); !errors.Is(err, errBoom) {
		t.Fatalf("encode fault not surfaced: %v", err)
	}
	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if _, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes())); !errors.Is(err, errBoom) {
		t.Fatalf("decode fault not surfaced: %v", err)
	}
	// A faulted save leaves no partial file behind.
	dir := t.TempDir()
	if n, err := e.SaveSnapshots(ctx, dir); err == nil || n != 0 {
		t.Fatalf("faulted save: %d, %v", n, err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("faulted save left %d files", len(files))
	}
	faultinject.Disable()

	// And the paths recover once the fault clears.
	if n, err := e.SaveSnapshots(ctx, dir); err != nil || n != 1 {
		t.Fatalf("post-chaos save: %d, %v", n, err)
	}
	if n, err := e2.LoadSnapshots(ctx, dir); err != nil || n != 1 {
		t.Fatalf("post-chaos load: %d, %v", n, err)
	}
}

// TestSpecBounds: normalize accepts exactly the specs the snapshot
// decoder restores. trace_len, warmup, window_insts and the stream
// warmup + trace_len stop at 1<<31 instructions, and the trace_len of
// a machine whose passes hold the whole stream (the "whole graph"
// cases: wakeup_extra 100 voids the carry argument) at 1<<24, each
// refused as a *ValidationError before any build; window resolves to
// at most the stream's length.
func TestSpecBounds(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	base := SessionSpec{Bench: "mcf", Warmup: 1000}
	cases := []struct {
		name                      string
		traceLen, warmup, winInst int
		window                    int
		ok                        bool
		wantWindow                int
	}{
		{"whole graph at 1<<24", 1 << 24, 1000, 0, 0, true, 64},
		{"whole graph past 1<<24", 1<<24 + 1, 1000, 0, 0, false, 0},
		{"whole graph at 1<<40", 1 << 40, 1000, 0, 0, false, 0},
		{"default blocks past 1<<24", 1<<24 + 1, 1000, 0, 0, true, 64},
		{"windowed stream at 1<<31", 1<<31 - 1000, 1000, 4096, 0, true, 64},
		{"windowed stream past 1<<31", 1<<31 - 999, 1000, 4096, 0, false, 0},
		{"windowed trace_len past 1<<31", 1<<31 + 1, 1000, 4096, 0, false, 0},
		{"windowed trace_len at 1<<40", 1 << 40, 1000, 4096, 0, false, 0},
		{"warmup past 1<<31", 1000, 1<<31 + 1, 4096, 0, false, 0},
		{"warmup MaxInt overflows the stream", 1, maxInt, 0, 0, false, 0},
		{"window_insts at 1<<31", 1000, 1000, 1 << 31, 0, true, 64},
		{"window_insts past 1<<31", 1000, 1000, 1<<31 + 1, 0, false, 0},
		{"window resolves to the stream", 1000, 1000, 0, 1 << 40, true, 2000},
		{"window MaxInt resolves to the stream", 1000, 1000, 512, maxInt, true, 2000},
		{"window under the stream stays", 1000, 1000, 0, 1999, true, 1999},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base
			sp.TraceLen, sp.Warmup, sp.WindowInsts, sp.Window = tc.traceLen, tc.warmup, tc.winInst, tc.window
			if strings.HasPrefix(tc.name, "whole graph") {
				sp.WakeupExtra = 100
			}
			got, err := sp.normalize()
			if !tc.ok {
				var ve *ValidationError
				if !errors.As(err, &ve) {
					t.Fatalf("normalize(%+v) = %v, want a *ValidationError", sp, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("normalize(%+v): %v", sp, err)
			}
			if got.Window != tc.wantWindow {
				t.Fatalf("window %d resolved to %d, want %d", tc.window, got.Window, tc.wantWindow)
			}
		})
	}
}

// TestSpecLatencyBounds: dl1_latency, wakeup_extra and branch_recovery
// stop at 1<<10 cycles, in normalize and in the snapshot decoder alike.
// A query past the bound is a *ValidationError before admission, so no
// session is built — at 1<<29 a build would grow the simulator's
// functional-unit ring past the host's memory — and
// sessions at the bound, in default and 512-instruction blocks (the
// first at wakeup_extra 1<<10, whose passes hold the whole stream),
// answer, and snapshot and restore.
func TestSpecLatencyBounds(t *testing.T) {
	base := SessionSpec{Bench: "mcf", TraceLen: 2000, Warmup: 1000}
	set := map[string]func(*SessionSpec, int){
		"dl1_latency":     func(s *SessionSpec, v int) { s.DL1Latency = v },
		"wakeup_extra":    func(s *SessionSpec, v int) { s.WakeupExtra = v },
		"branch_recovery": func(s *SessionSpec, v int) { s.BranchRecovery = v },
	}
	for name, setField := range set {
		for _, tc := range []struct {
			v  int
			ok bool
		}{{1 << 10, true}, {1<<10 + 1, false}, {1 << 29, false}, {1 << 62, false}} {
			sp := base
			setField(&sp, tc.v)
			_, err := sp.normalize()
			var ve *ValidationError
			if tc.ok && err != nil {
				t.Errorf("%s %d: %v", name, tc.v, err)
			}
			if !tc.ok && !errors.As(err, &ve) {
				t.Errorf("%s %d: got %v, want a *ValidationError", name, tc.v, err)
			}
		}
	}

	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()
	huge := base
	huge.DL1Latency = 1 << 29
	var ve *ValidationError
	if _, err := e.Query(ctx, Query{Session: huge, Op: OpCost, Cats: []string{"dl1"}}); !errors.As(err, &ve) {
		t.Fatalf("dl1_latency 1<<29: got %v, want a *ValidationError", err)
	}
	if m := e.Metrics(); m.SessionsBuiltTotal != 0 {
		t.Fatalf("a refused query built %d sessions", m.SessionsBuiltTotal)
	}

	whole := base
	whole.DL1Latency, whole.WakeupExtra, whole.BranchRecovery = 1<<10, 1<<10, 1<<10
	windowed := base
	windowed.DL1Latency, windowed.BranchRecovery, windowed.WindowInsts = 1<<10, 1<<10, 512
	for _, spec := range []SessionSpec{whole, windowed} {
		q := Query{Session: spec, Op: OpCost, Cats: []string{"dl1"}}
		resp, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("window_insts %d at the latency bound: %v", spec.WindowInsts, err)
		}
		if resp.Value <= 0 {
			t.Fatalf("window_insts %d: a 1,024-cycle DL1 costs %d cycles", spec.WindowInsts, resp.Value)
		}
		var snap bytes.Buffer
		if err := e.SnapshotSession(ctx, resp.SessionKey, &snap); err != nil {
			t.Fatal(err)
		}
		e2 := New(Config{Workers: 1})
		if _, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("window_insts %d: restoring at the latency bound: %v", spec.WindowInsts, err)
		}
		got, err := e2.Query(ctx, q)
		e2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonicalResponse(t, got), canonicalResponse(t, resp); !bytes.Equal(g, w) {
			t.Fatalf("window_insts %d: restored answer diverged:\n  built:    %s\n  restored: %s", spec.WindowInsts, w, g)
		}
	}

	// A checksum-valid snapshot whose spec carries a latency past the
	// bound is refused by the decoder.
	key, _ := windowed.Key()
	s := e.sessionByKey(key)
	past := *s
	past.spec.DL1Latency = 1<<10 + 1
	p := binary.AppendUvarint(sessionPayload(&past), 1)
	p = binary.AppendUvarint(binary.AppendUvarint(p, 0), uint64(s.cycles))
	if _, err := e.RestoreSession(ctx, bytes.NewReader(snapFrame(snapVersion4, p))); !errors.As(err, &ve) {
		t.Fatalf("snapshot with dl1_latency past the bound: got %v, want a *ValidationError", err)
	}
}

// TestHugeWindowSnapshotRoundTrip: a session asked for with window
// 1<<40, in default and 512-instruction blocks, snapshots, restores
// into a second engine and answers byte-identically there, with no
// build.
func TestHugeWindowSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, windowInsts := range []int{0, 512} {
		spec := SessionSpec{Bench: "gcc", Seed: 4, TraceLen: 2000, Warmup: 1000, Window: 1 << 40, WindowInsts: windowInsts}
		mix := windowedQueryMix(spec)
		e1 := New(Config{Workers: 2, MaxSessions: 2})
		key, err := e1.Warm(ctx, spec)
		if err != nil {
			t.Fatalf("window_insts %d: warm: %v", windowInsts, err)
		}
		var want [][]byte
		for _, q := range mix {
			resp, err := e1.Query(ctx, q)
			if err != nil {
				t.Fatalf("window_insts %d: %s: %v", windowInsts, q.Op, err)
			}
			want = append(want, canonicalResponse(t, resp))
		}
		var snap bytes.Buffer
		if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
			t.Fatalf("window_insts %d: snapshot: %v", windowInsts, err)
		}
		e1.Close()

		e2 := New(Config{Workers: 2, MaxSessions: 2})
		if gotKey, err := e2.RestoreSession(ctx, &snap); err != nil || gotKey != key {
			t.Fatalf("window_insts %d: restore = %q, %v; want key %q", windowInsts, gotKey, err, key)
		}
		for i, q := range mix {
			resp, err := e2.Query(ctx, q)
			if err != nil {
				t.Fatalf("window_insts %d: restored %s: %v", windowInsts, q.Op, err)
			}
			if got := canonicalResponse(t, resp); !bytes.Equal(got, want[i]) {
				t.Fatalf("window_insts %d: %s diverged after restore:\n  built:    %s\n  restored: %s",
					windowInsts, q.Op, want[i], got)
			}
		}
		if m := e2.Metrics(); m.SessionBuildP50us != 0 || m.WindowedBuildsTotal != 0 {
			t.Fatalf("window_insts %d: restored engine ran a cold build", windowInsts)
		}
		e2.Close()
	}
}
