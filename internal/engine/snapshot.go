package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"icost/internal/cache"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/faultinject"
	"icost/internal/isa"
	"icost/internal/ooo"
)

// Durable session snapshots. A built session is expensive — trace
// generation plus out-of-order simulation — but every query it can
// answer needs only the normalized spec and the dependence graph
// (execute reads the analyzer, which wraps the graph). The snapshot
// encodes exactly that closure, so a daemon restart restores its
// working set in milliseconds instead of re-simulating it:
//
//	magic    "ICSS" + version byte
//	checksum 4-byte little-endian CRC-32C of the payload
//	length   uvarint payload byte count
//	payload  normalized spec, build wall time, simulated cycles, a
//	         kind byte, then the kind-specific body: kind 0 (whole
//	         graph) is graph config + per-instruction records
//	         (varints); kind 1 (windowed) is the windowed run's shape
//	         plus every (flags, time) entry the session has folded so
//	         far, in increasing flag order, the base entry among them
//
// Version 2 added the spec's window_insts field and the kind byte;
// version 3 replaced the windowed body's dense 256-entry subset table
// with the sparse entries. Version-1 (whole-graph only) and version-2
// snapshots still load. The encoding is
// canonical: the same session always produces the same bytes, so a
// snapshot of a restored session is bit-identical to the snapshot it
// came from (property-tested in snapshot_test.go). The checksum makes
// corruption a clean load error, never a corrupt graph answering
// queries.

// Snapshot format versions. Adding a version means adding a constant
// here AND a dispatch case in readSnapshot — codecver enforces both,
// and that the encoder stamps the newest version.
//
//lint:codec icss
const (
	snapVersion1       = 1 // whole-graph payloads only, no kind byte
	snapVersion2       = 2 // adds spec window_insts and the kind byte
	snapVersion3       = 3 // windowed bodies carry sparse (flags, time) entries
	snapVersionCurrent = snapVersion3
)

// snapMagic is the header every written snapshot starts with: the
// four ICSS bytes plus the current format version.
//
//lint:codec-encode icss
var snapMagic = [5]byte{'I', 'C', 'S', 'S', snapVersionCurrent}

// Snapshot payload kinds (version ≥ 2).
const (
	snapKindGraph    = 0
	snapKindWindowed = 1
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// maxSnapPayload bounds a snapshot payload (a 30k-instruction session
// encodes to well under 1 MiB; 1 GiB is a generous corruption guard).
const maxSnapPayload = 1 << 30

// snapMinInstBytes is the smallest encoding of one graph instruction:
// opcode, a one-byte SIdx varint, the flag, level and break bytes, and
// one-byte varints for the two latencies and three references.
const snapMinInstBytes = 1 + 1 + 4 + 2 + 3

// SnapshotSession encodes the built session identified by key into w.
// The session stays live — encoding only reads the graph, which is
// immutable after build, so snapshots can be taken while queries run.
func (e *Engine) SnapshotSession(ctx context.Context, key string, w io.Writer) error {
	s := e.sessionByKey(key)
	if s == nil {
		return fmt.Errorf("engine: no built session %q to snapshot", key)
	}
	return writeSnapshot(ctx, w, s)
}

// sessionByKey returns the completed session for key, or nil.
func (e *Engine) sessionByKey(key string) *session {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	el, ok := e.store.items[key]
	if !ok {
		return nil
	}
	entry := el.Value.(*sessionEntry)
	select {
	case <-entry.ready:
		return entry.sess
	default:
		return nil
	}
}

func writeSnapshot(ctx context.Context, w io.Writer, s *session) error {
	if err := faultinject.Hit(ctx, faultinject.FleetSnapshot); err != nil {
		return err
	}
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)

	sp := s.spec
	putSnapString(bw, sp.Bench)
	putSnapUv(bw, sp.Seed)
	putSnapUv(bw, uint64(sp.TraceLen))
	putSnapUv(bw, uint64(sp.Warmup))
	putSnapUv(bw, uint64(sp.DL1Latency))
	putSnapUv(bw, uint64(sp.Window))
	putSnapUv(bw, uint64(sp.WakeupExtra))
	putSnapUv(bw, uint64(sp.BranchRecovery))
	putSnapUv(bw, uint64(sp.WindowInsts))
	putSnapUv(bw, uint64(s.built))
	putSnapUv(bw, uint64(s.result.Cycles))

	if s.windowed {
		bw.WriteByte(snapKindWindowed)
		putSnapUv(bw, uint64(s.insts))
		putSnapUv(bw, uint64(s.windows))
		putSnapUv(bw, uint64(s.peakBytes))
		known := s.analyzer.Known()
		flags := make([]depgraph.Flags, 0, len(known))
		for f := range known {
			flags = append(flags, f)
		}
		slices.Sort(flags)
		putSnapUv(bw, uint64(len(flags)))
		for _, f := range flags {
			putSnapUv(bw, uint64(f))
			putSnapUv(bw, uint64(known[f]))
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return writeSnapFrame(w, payload.Bytes())
	}
	bw.WriteByte(snapKindGraph)

	g := s.result.Graph
	n := g.Len()
	putSnapUv(bw, uint64(n))
	for _, v := range snapCfgFields(g.Cfg) {
		putSnapUv(bw, uint64(v))
	}
	for i := 0; i < n; i++ {
		info := &g.Info[i]
		bw.WriteByte(byte(info.Op))
		putSnapUv(bw, uint64(info.SIdx+1))
		var flags byte
		if info.Mispredict {
			flags |= 1
		}
		if info.DTLBMiss {
			flags |= 2
		}
		if info.ITLBMiss {
			flags |= 4
		}
		bw.WriteByte(flags)
		bw.WriteByte(byte(info.DataLevel))
		bw.WriteByte(byte(info.ILevel))
		bw.WriteByte(g.DDBreak[i])
		putSnapUv(bw, uint64(g.RELat[i]))
		putSnapUv(bw, uint64(g.CCLat[i]))
		putSnapUv(bw, uint64(g.Prod1[i]+1))
		putSnapUv(bw, uint64(g.Prod2[i]+1))
		putSnapUv(bw, uint64(g.PPLeader[i]+1))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return writeSnapFrame(w, payload.Bytes())
}

// writeSnapFrame wraps a finished payload in the magic + CRC + length
// framing.
func writeSnapFrame(w io.Writer, payload []byte) error {
	out := bufio.NewWriter(w)
	out.Write(snapMagic[:])
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(payload, snapCRC))
	out.Write(crcb[:])
	putSnapUv(out, uint64(len(payload)))
	if _, err := out.Write(payload); err != nil {
		return err
	}
	return out.Flush()
}

// snapCfgFields flattens a graph config in canonical field order.
func snapCfgFields(c depgraph.Config) []int {
	return []int{
		c.FetchBW, c.CommitBW, c.Window, c.WindowIdealFactor,
		c.DispatchToReady, c.CompleteToCommit, c.BranchRecovery, c.WakeupExtra,
		c.DL1Latency, c.L2Latency, c.MemLatency, c.TLBMissLatency,
	}
}

// RestoreSession decodes one snapshot from r and installs it in the
// session store, returning the restored session's key. A session
// already live (or building) under the same key wins: the snapshot is
// decoded and discarded, and the live key is returned.
func (e *Engine) RestoreSession(ctx context.Context, r io.Reader) (string, error) {
	s, err := readSnapshot(ctx, r, &e.met)
	if err != nil {
		return "", err
	}
	e.installSession(s)
	return s.key, nil
}

// readSnapshot decodes one framed snapshot from r; met is the
// engine's, for a windowed session's re-folds. Bytes that end
// early or do not decode are the sender's malformed input and fail as
// a *ValidationError, an undecodable version as a
// *SnapshotVersionError, and a payload failing its checksum as a
// *SnapshotChecksumError; a reader that fails outright reports its
// own error.
func readSnapshot(ctx context.Context, r io.Reader, met *metrics) (*session, error) {
	if err := faultinject.Hit(ctx, faultinject.FleetSnapshot); err != nil {
		return nil, err
	}
	src := &snapSource{r: r}
	s, err := decodeSnapshot(src, met)
	if err != nil && src.err != nil {
		return nil, fmt.Errorf("engine: reading snapshot: %w", src.err)
	}
	return s, err
}

// snapSource remembers the first failure of the reader a snapshot
// arrives on, so a dropped connection is not mistaken for bytes that
// ended early.
type snapSource struct {
	r   io.Reader
	err error
}

func (s *snapSource) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF && s.err == nil {
		s.err = err
	}
	return n, err
}

// decodeSnapshot decodes one framed snapshot, dispatching on the
// version byte: every declared snapVersion* constant has a case.
//
//lint:codec-decode icss
func decodeSnapshot(r io.Reader, met *metrics) (*session, error) {
	hr := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(hr, magic[:]); err != nil {
		return nil, errValidation("engine: reading snapshot magic: %v", err)
	}
	if [4]byte{magic[0], magic[1], magic[2], magic[3]} != [4]byte{'I', 'C', 'S', 'S'} {
		return nil, errValidation("engine: bad snapshot magic %q", magic[:4])
	}
	version := magic[4]
	switch version {
	case snapVersion1, snapVersion2, snapVersion3:
	default:
		return nil, &SnapshotVersionError{Version: version}
	}
	var crcb [4]byte
	if _, err := io.ReadFull(hr, crcb[:]); err != nil {
		return nil, errValidation("engine: reading snapshot checksum: %v", err)
	}
	plen, err := getSnapUv(hr, maxSnapPayload)
	if err != nil {
		return nil, err
	}
	// The declared length is the sender's claim, not an allocation
	// budget: the buffer grows only as payload bytes actually arrive.
	payload, err := io.ReadAll(io.LimitReader(hr, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("engine: reading snapshot payload: %w", err)
	}
	if uint64(len(payload)) != plen {
		return nil, errValidation("engine: snapshot truncated: %d of %d payload bytes", len(payload), plen)
	}
	if want, got := binary.LittleEndian.Uint32(crcb[:]), crc32.Checksum(payload, snapCRC); got != want {
		return nil, &SnapshotChecksumError{Want: want, Got: got}
	}

	br := bytes.NewReader(payload)
	var sp SessionSpec
	if sp.Bench, err = getSnapString(br); err != nil {
		return nil, err
	}
	if sp.Seed, err = getSnapUv(br, 1<<63); err != nil {
		return nil, err
	}
	type field struct {
		dst *int
		max int64
	}
	fields := []field{
		{&sp.TraceLen, maxSpecInsts}, {&sp.Warmup, maxSpecInsts}, {&sp.DL1Latency, maxSpecLatency},
		{&sp.Window, maxSpecInsts}, {&sp.WakeupExtra, maxSpecLatency}, {&sp.BranchRecovery, maxSpecLatency},
	}
	if version >= snapVersion2 {
		fields = append(fields, field{&sp.WindowInsts, maxSpecInsts})
	}
	for _, f := range fields {
		v, err := getSnapUv(br, uint64(f.max))
		if err != nil {
			return nil, err
		}
		*f.dst = int(v)
	}
	builtNS, err := getSnapUv(br, 1<<62)
	if err != nil {
		return nil, err
	}
	cycles, err := getSnapUv(br, 1<<62)
	if err != nil {
		return nil, err
	}

	spec, err := sp.normalize()
	if err != nil {
		return nil, errValidation("engine: snapshot spec: %v", err)
	}
	key, _ := spec.Key()

	kind := byte(snapKindGraph)
	if version >= snapVersion2 {
		if kind, err = br.ReadByte(); err != nil {
			return nil, errValidation("engine: reading snapshot kind: %v", err)
		}
	}
	if windowed := spec.WindowInsts > 0; windowed != (kind == snapKindWindowed) {
		return nil, errValidation("engine: snapshot kind %d disagrees with spec window_insts %d", kind, spec.WindowInsts)
	}
	if kind == snapKindWindowed {
		return readWindowedBody(br, version, key, spec, time.Duration(builtNS), int64(cycles), met)
	}
	if kind != snapKindGraph {
		return nil, errValidation("engine: unknown snapshot kind %d", kind)
	}

	n64, err := getSnapUv(br, uint64(maxGraphInsts))
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n != spec.TraceLen {
		return nil, errValidation("engine: snapshot graph has %d instructions, spec says %d", n, spec.TraceLen)
	}
	var cfg depgraph.Config
	cfgDst := snapCfgFieldPtrs(&cfg)
	for _, dst := range cfgDst {
		v, err := getSnapUv(br, 1<<31)
		if err != nil {
			return nil, err
		}
		*dst = int(v)
	}
	if err := cfg.Validate(); err != nil {
		return nil, errValidation("engine: snapshot graph config: %v", err)
	}
	// Size the graph only once the payload can hold it: a CRC-valid
	// frame may still declare far more instructions than it carries.
	if left := br.Len(); n > left/snapMinInstBytes {
		return nil, errValidation("engine: snapshot declares %d instructions but carries %d bytes (%d per instruction at least)",
			n, left, snapMinInstBytes)
	}

	g := depgraph.New(cfg, n)
	for i := 0; i < n; i++ {
		var hdr [5]byte
		if _, err := io.ReadFull(br, hdr[:1]); err != nil {
			return nil, errValidation("engine: snapshot truncated at instruction %d: %v", i, err)
		}
		if isa.Op(hdr[0]) >= isa.NumOps {
			return nil, errValidation("engine: snapshot has invalid opcode %d", hdr[0])
		}
		g.Info[i].Op = isa.Op(hdr[0])
		sidx, err := getSnapUv(br, 1<<31)
		if err != nil {
			return nil, err
		}
		g.Info[i].SIdx = int32(sidx) - 1
		if _, err := io.ReadFull(br, hdr[1:]); err != nil {
			return nil, errValidation("engine: snapshot truncated at instruction %d: %v", i, err)
		}
		flags := hdr[1]
		if flags > 7 {
			return nil, errValidation("engine: snapshot has invalid flag byte %#x", flags)
		}
		g.Info[i].Mispredict = flags&1 != 0
		g.Info[i].DTLBMiss = flags&2 != 0
		g.Info[i].ITLBMiss = flags&4 != 0
		if hdr[2] > byte(cache.LevelMem) || hdr[3] > byte(cache.LevelMem) {
			return nil, errValidation("engine: snapshot has invalid cache level")
		}
		g.Info[i].DataLevel = cache.Level(hdr[2])
		g.Info[i].ILevel = cache.Level(hdr[3])
		g.DDBreak[i] = hdr[4]
		lat, err := getSnapUv(br, 1<<30)
		if err != nil {
			return nil, err
		}
		g.RELat[i] = int32(lat)
		if lat, err = getSnapUv(br, 1<<30); err != nil {
			return nil, err
		}
		g.CCLat[i] = int32(lat)
		for _, dst := range []*[]int32{&g.Prod1, &g.Prod2, &g.PPLeader} {
			v, err := getSnapUv(br, uint64(n))
			if err != nil {
				return nil, err
			}
			(*dst)[i] = int32(v) - 1
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errValidation("engine: snapshot has trailing payload bytes")
	}

	return &session{
		key:      key,
		spec:     spec,
		result:   &ooo.Result{Cycles: int64(cycles), Graph: g},
		analyzer: cost.New(g),
		built:    time.Duration(builtNS),
		pooled:   false, // restored graphs are heap-backed; release is a no-op
	}, nil
}

// readWindowedBody decodes a windowed (kind 1) payload body: the run
// shape, then the folded subset times — version 2's dense table of all
// 256 subsets (index == flags), or version 3's (flags, time) entries
// in strictly increasing flag order. Either way the base entry must be
// present and equal the simulated cycles. br must be positioned after
// the kind byte and end exactly at the last entry.
func readWindowedBody(br *bytes.Reader, version byte, key string, spec SessionSpec, built time.Duration,
	cycles int64, met *metrics) (*session, error) {
	insts, err := getSnapUv(br, 1<<40)
	if err != nil {
		return nil, err
	}
	if int64(insts) != int64(spec.TraceLen) {
		return nil, errValidation("engine: snapshot folded %d instructions, spec says %d", insts, spec.TraceLen)
	}
	windows, err := getSnapUv(br, 1<<40)
	if err != nil {
		return nil, err
	}
	peakBytes, err := getSnapUv(br, 1<<50)
	if err != nil {
		return nil, err
	}
	entries, err := getSnapUv(br, 1<<depgraph.NumFlags)
	if err != nil {
		return nil, err
	}
	if version == snapVersion2 && entries != 1<<depgraph.NumFlags {
		return nil, errValidation("engine: snapshot subset table has %d entries, want %d", entries, 1<<depgraph.NumFlags)
	}
	known := make(map[depgraph.Flags]int64, entries)
	var prev uint64
	for i := uint64(0); i < entries; i++ {
		f := i
		if version >= snapVersion3 {
			if f, err = getSnapUv(br, uint64(depgraph.AllFlags)); err != nil {
				return nil, err
			}
			if i > 0 && f <= prev {
				return nil, errValidation("engine: snapshot entry flags %d follow %d: not strictly increasing", f, prev)
			}
		}
		t, err := getSnapUv(br, 1<<62)
		if err != nil {
			return nil, err
		}
		known[depgraph.Flags(f)] = int64(t)
		prev = f
	}
	// The base lane is the simulated cycle count by the windowed
	// pipeline's self-check; re-verify so a corrupted-but-CRC-valid
	// body (or a hand-edited one) cannot answer queries.
	base, ok := known[0]
	if !ok {
		return nil, errValidation("engine: snapshot has no base entry")
	}
	if base != cycles {
		return nil, errValidation("engine: snapshot base lane %d != cycles %d", base, cycles)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errValidation("engine: snapshot has trailing payload bytes")
	}
	return newWindowedSession(&session{
		key:       key,
		spec:      spec,
		result:    &ooo.Result{Cycles: cycles},
		built:     built,
		insts:     int(insts),
		windows:   int(windows),
		peakBytes: int64(peakBytes),
		met:       met,
	}, known), nil
}

// snapCfgFieldPtrs mirrors snapCfgFields for decoding.
func snapCfgFieldPtrs(c *depgraph.Config) []*int {
	return []*int{
		&c.FetchBW, &c.CommitBW, &c.Window, &c.WindowIdealFactor,
		&c.DispatchToReady, &c.CompleteToCommit, &c.BranchRecovery, &c.WakeupExtra,
		&c.DL1Latency, &c.L2Latency, &c.MemLatency, &c.TLBMissLatency,
	}
}

// installSession publishes a restored session, respecting the store's
// LRU bound and single-flight discipline: if the key is already live
// or building, the restored copy is discarded (the store's version is
// at least as fresh). Returns whether the session was installed.
func (e *Engine) installSession(s *session) bool {
	if !s.windowed {
		s.analyzer.SetBatchObserver(e.met.recordBatch)
	}
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	entry, builder := e.store.entry(s.key, time.Now())
	if !builder {
		return false
	}
	entry.sess = s
	entry.gen = e.gen.Add(1)
	close(entry.ready)
	e.met.sessionsBuilt.Add(1)
	e.met.sessionsEvicted.Add(int64(e.store.evict()))
	return true
}

// SessionInfo describes one resident, fully built session: its
// content-hash key, the engine-wide install generation (monotone; a
// higher generation under the same key means the entry was replaced),
// and whether it was built through the windowed pipeline.
type SessionInfo struct {
	Key        string `json:"key"`
	Generation uint64 `json:"generation"`
	Windowed   bool   `json:"windowed,omitempty"`
}

// Sessions lists the resident built sessions, most recently used
// first. Entries still building or failed are omitted — only sessions
// that can be snapshotted appear.
func (e *Engine) Sessions() []SessionInfo {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	var out []SessionInfo
	for el := e.store.ll.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*sessionEntry)
		select {
		case <-entry.ready:
			if entry.sess != nil {
				out = append(out, SessionInfo{
					Key:        entry.key,
					Generation: entry.gen,
					Windowed:   entry.sess.windowed,
				})
			}
		default:
		}
	}
	return out
}

// SessionGeneration returns the install generation of the built
// session under key, with ok=false when no completed session is
// resident.
func (e *Engine) SessionGeneration(key string) (uint64, bool) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	el, ok := e.store.items[key]
	if !ok {
		return 0, false
	}
	entry := el.Value.(*sessionEntry)
	select {
	case <-entry.ready:
		if entry.sess != nil {
			return entry.gen, true
		}
	default:
	}
	return 0, false
}

// SaveSnapshots writes every built session to dir, one atomically
// renamed <key>.icss file each, and reports how many were saved. Call
// before Close: Close releases pool-backed graph storage back to the
// arena, after which sessions must not be read.
func (e *Engine) SaveSnapshots(ctx context.Context, dir string) (int, error) {
	e.storeMu.Lock()
	sessions := e.store.sessions()
	e.storeMu.Unlock()
	if len(sessions) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	saved := 0
	for _, s := range sessions {
		if err := ctx.Err(); err != nil {
			return saved, err
		}
		if err := e.saveOne(ctx, dir, s); err != nil {
			return saved, err
		}
		saved++
		e.met.snapshotsSaved.Add(1)
	}
	return saved, nil
}

func (e *Engine) saveOne(ctx context.Context, dir string, s *session) error {
	final := filepath.Join(dir, s.key+".icss")
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeSnapshot(ctx, f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}

// LoadSnapshots restores every *.icss snapshot under dir into the
// session store and reports how many loaded. Individual corrupt or
// stale files are skipped (counted in the snapshot-load-error metric)
// rather than failing startup; a missing directory is zero sessions,
// not an error.
func (e *Engine) LoadSnapshots(ctx context.Context, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".icss" {
			continue
		}
		if err := ctx.Err(); err != nil {
			return loaded, err
		}
		if e.loadOne(ctx, filepath.Join(dir, ent.Name())) {
			loaded++
		}
	}
	return loaded, nil
}

func (e *Engine) loadOne(ctx context.Context, path string) bool {
	f, err := os.Open(path)
	if err != nil {
		e.met.snapshotLoadErrors.Add(1)
		return false
	}
	defer f.Close()
	s, err := readSnapshot(ctx, f, &e.met)
	if err != nil {
		e.met.snapshotLoadErrors.Add(1)
		return false
	}
	if !e.installSession(s) {
		return false
	}
	e.met.snapshotsLoaded.Add(1)
	return true
}

func putSnapUv(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func getSnapUv(r io.ByteReader, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, errValidation("engine: reading snapshot varint: %v", err)
	}
	if v > max {
		return 0, errValidation("engine: snapshot field %d exceeds bound %d", v, max)
	}
	return v, nil
}

func putSnapString(w *bufio.Writer, s string) {
	putSnapUv(w, uint64(len(s)))
	w.WriteString(s)
}

func getSnapString(r *bytes.Reader) (string, error) {
	n, err := getSnapUv(r, 1<<12)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", errValidation("engine: reading snapshot string: %v", err)
	}
	return string(b), nil
}
