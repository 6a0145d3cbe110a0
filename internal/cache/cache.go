// Package cache implements the memory system of the simulated machine
// (paper Table 6): 32KB 2-way L1 instruction and data caches, a shared
// 1MB 4-way L2, a 100-cycle memory, and 64/128-entry instruction/data
// TLBs with a 30-cycle miss-handling latency.
package cache

import (
	"fmt"

	"icost/internal/isa"
)

// Level classifies where an access was satisfied.
type Level uint8

const (
	// LevelL1 is a first-level hit.
	LevelL1 Level = iota
	// LevelL2 is an L1 miss satisfied by the L2.
	LevelL2
	// LevelMem is an L2 miss satisfied by memory.
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("level?%d", uint8(l))
	}
}

// Cache is one set-associative cache with true-LRU replacement. Tags
// are line addresses; line 0 is reserved as the invalid marker, which
// is safe because no generated address maps to line 0.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []isa.Addr
	lru       []uint64
	tick      uint64

	// Accesses and Misses count since construction.
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of sizeBytes with the given associativity
// and line size (both powers of two).
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		panic("cache: size not divisible by ways*line")
	}
	sets := sizeBytes / (ways * lineBytes)
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes {
		panic("cache: line size not a power of two")
	}
	n := sets * ways
	return &Cache{sets: sets, ways: ways, lineShift: shift,
		tags: make([]isa.Addr, n), lru: make([]uint64, n)}
}

// Line returns the line address (tag) for addr.
func (c *Cache) Line(addr isa.Addr) isa.Addr { return addr >> c.lineShift }

func (c *Cache) setOf(line isa.Addr) int { return int(uint64(line) % uint64(c.sets)) }

// Access looks up addr, updates LRU state, and fills on miss.
// It reports whether the access hit.
func (c *Cache) Access(addr isa.Addr) bool {
	c.Accesses++
	line := c.Line(addr)
	s := c.setOf(line) * c.ways
	victim := s
	for w := 0; w < c.ways; w++ {
		if c.tags[s+w] == line {
			c.tick++
			c.lru[s+w] = c.tick
			return true
		}
		if c.tags[s+w] == 0 {
			victim = s + w
		} else if c.tags[victim] != 0 && c.lru[s+w] < c.lru[victim] {
			victim = s + w
		}
	}
	c.Misses++
	c.tick++
	c.tags[victim] = line
	c.lru[victim] = c.tick
	return false
}

// Probe reports whether addr is resident without changing any state.
func (c *Cache) Probe(addr isa.Addr) bool {
	line := c.Line(addr)
	s := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[s+w] == line {
			return true
		}
	}
	return false
}

// TLB is a fully associative translation buffer with LRU replacement.
// Resident pages live in fixed slot arrays with their last-use ticks,
// found through an open-addressed index; a miss on a full TLB evicts
// the slot with the oldest tick. Ticks are unique, so the victim is
// exactly the least recently used page.
type TLB struct {
	pageShift uint
	pages     []isa.Addr // slot -> resident page
	ticks     []uint64   // slot -> last-use tick
	used      int        // slots filled so far
	tick      uint64

	// index maps a page to its slot+1 (0 = empty bucket) by linear
	// probing from the page's hash; at least twice entries long, so
	// probes stay short.
	index     []int32
	indexBits uint

	// Accesses and Misses count since construction.
	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count and page size.
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 || pageBytes <= 0 {
		panic("tlb: non-positive geometry")
	}
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	if 1<<shift != pageBytes {
		panic("tlb: page size not a power of two")
	}
	bits := uint(1)
	for 1<<bits < 2*entries {
		bits++
	}
	return &TLB{pageShift: shift,
		pages: make([]isa.Addr, entries), ticks: make([]uint64, entries),
		index: make([]int32, 1<<bits), indexBits: bits}
}

// home is page's first index bucket (Fibonacci hashing).
func (t *TLB) home(page isa.Addr) int {
	return int(uint64(page) * 0x9e3779b97f4a7c15 >> (64 - t.indexBits))
}

// Access looks up the page of addr, filling (with LRU eviction) on
// miss; it reports whether the access hit.
//
//lint:hotpath
func (t *TLB) Access(addr isa.Addr) bool {
	t.Accesses++
	page := addr >> t.pageShift
	t.tick++
	mask := len(t.index) - 1
	for b := t.home(page); t.index[b] != 0; b = (b + 1) & mask {
		if s := t.index[b] - 1; t.pages[s] == page {
			t.ticks[s] = t.tick
			return true
		}
	}
	t.Misses++
	slot := t.used
	if slot < len(t.pages) {
		t.used++
	} else {
		slot = 0
		for s, tk := range t.ticks {
			if tk < t.ticks[slot] {
				slot = s
			}
		}
		t.unindex(t.pages[slot])
	}
	t.pages[slot], t.ticks[slot] = page, t.tick
	b := t.home(page)
	for t.index[b] != 0 {
		b = (b + 1) & mask
	}
	t.index[b] = int32(slot + 1)
	return false
}

// unindex removes a resident page from the index, shifting later
// entries of its probe run back so every lookup still finds its page
// before reaching an empty bucket.
func (t *TLB) unindex(page isa.Addr) {
	mask := len(t.index) - 1
	hole := t.home(page)
	for t.pages[t.index[hole]-1] != page {
		hole = (hole + 1) & mask
	}
	for b := (hole + 1) & mask; t.index[b] != 0; b = (b + 1) & mask {
		// The entry at b may fill the hole unless its home lies
		// cyclically in (hole, b]: then it would move before its home.
		if h := t.home(t.pages[t.index[b]-1]); (b-h)&mask >= (b-hole)&mask {
			t.index[hole] = t.index[b]
			hole = b
		}
	}
	t.index[hole] = 0
}

// Config sets the hierarchy's geometry and latencies. All latencies
// are in cycles. The zero value is invalid; use DefaultConfig.
type Config struct {
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	LineBytes        int

	// DL1Latency is the load-to-use latency of an L1 data hit. The
	// paper's baseline is 2; the Section 4.1 experiments raise it
	// to 4.
	DL1Latency int
	// L2Latency is the additional latency of an L2 hit.
	L2Latency int
	// MemLatency is the additional latency of an L2 miss.
	MemLatency int

	ITLBEntries, DTLBEntries int
	PageBytes                int
	// TLBMissLatency is added when a translation misses.
	TLBMissLatency int
}

// DefaultConfig is the Table 6 memory system.
func DefaultConfig() Config {
	return Config{
		L1ISize: 32 << 10, L1IWays: 2,
		L1DSize: 32 << 10, L1DWays: 2,
		L2Size: 1 << 20, L2Ways: 4,
		LineBytes:  64,
		DL1Latency: 2, L2Latency: 12, MemLatency: 100,
		ITLBEntries: 64, DTLBEntries: 128,
		PageBytes: 8 << 10, TLBMissLatency: 30,
	}
}

// Hierarchy is the full memory system.
type Hierarchy struct {
	cfg  Config
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:  cfg,
		L1I:  NewCache(cfg.L1ISize, cfg.L1IWays, cfg.LineBytes),
		L1D:  NewCache(cfg.L1DSize, cfg.L1DWays, cfg.LineBytes),
		L2:   NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes),
		ITLB: NewTLB(cfg.ITLBEntries, cfg.PageBytes),
		DTLB: NewTLB(cfg.DTLBEntries, cfg.PageBytes),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// DataResult describes one data access.
type DataResult struct {
	// Level is where the access was satisfied.
	Level Level
	// Latency is the total access latency in cycles, including the
	// L1 access and any TLB-miss penalty.
	Latency int
	// TLBMiss reports whether the translation missed.
	TLBMiss bool
	// Line is the 64-byte line address, for cache-block-sharing (PP
	// edge) tracking in the graph builder.
	Line isa.Addr
}

// DataAccess performs a load or store lookup.
func (h *Hierarchy) DataAccess(addr isa.Addr) DataResult {
	r := DataResult{Line: h.L1D.Line(addr), Latency: h.cfg.DL1Latency, Level: LevelL1}
	if !h.DTLB.Access(addr) {
		r.TLBMiss = true
		r.Latency += h.cfg.TLBMissLatency
	}
	if h.L1D.Access(addr) {
		return r
	}
	r.Level = LevelL2
	r.Latency += h.cfg.L2Latency
	if h.L2.Access(addr) {
		return r
	}
	r.Level = LevelMem
	r.Latency += h.cfg.MemLatency
	return r
}

// InstResult describes one instruction fetch.
type InstResult struct {
	// Level is where the fetch was satisfied.
	Level Level
	// Penalty is the extra fetch latency beyond a pipelined L1 hit
	// (zero for an L1 hit), including any ITLB-miss penalty.
	Penalty int
	// TLBMiss reports whether the translation missed.
	TLBMiss bool
}

// InstAccess performs an instruction fetch lookup.
func (h *Hierarchy) InstAccess(pc isa.Addr) InstResult {
	var r InstResult
	if !h.ITLB.Access(pc) {
		r.TLBMiss = true
		r.Penalty += h.cfg.TLBMissLatency
	}
	if h.L1I.Access(pc) {
		return r
	}
	r.Level = LevelL2
	r.Penalty += h.cfg.L2Latency
	if h.L2.Access(pc) {
		return r
	}
	r.Level = LevelMem
	r.Penalty += h.cfg.MemLatency
	return r
}
