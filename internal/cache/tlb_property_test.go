package cache

import (
	"testing"

	"icost/internal/isa"
)

// TestTLBMatchesLegacy replays random page streams through the slot
// arrays and the map-backed reference: every access must hit or miss
// alike, and after each stream both must hold the same resident pages
// with the same last-use ticks. Streams mix a hot working set that
// fits, a cold range far wider than the TLB (thrash: every fill
// evicts), widely spaced page numbers and sequential sweeps, over
// entry counts from 1 to the Table 6 DTLB's 128. The index must end
// with exactly one bucket per resident page.
func TestTLBMatchesLegacy(t *testing.T) {
	const pageBytes = 8 << 10
	for seed := uint64(1); seed <= 24; seed++ {
		x := seed * 0x9e3779b97f4a7c15
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		entries := []int{1, 2, 3, 7, 64, 128}[seed%6]
		tl, ref := NewTLB(entries, pageBytes), newLegacyTLB(entries, pageBytes)
		sweep := 0
		for i := 0; i < 40000; i++ {
			var page int
			switch k := next(100); {
			case k < 50:
				page = next(entries) // hot: fits
			case k < 80:
				page = next(entries * 8) // thrash beyond entries
			case k < 90:
				page = next(16) << 20
			default:
				sweep++
				page = 1000 + sweep%(entries*3)
			}
			addr := isa.Addr(page*pageBytes + next(pageBytes))
			if got, want := tl.Access(addr), ref.Access(addr); got != want {
				t.Fatalf("seed %d access %d (page %#x, %d entries): hit %v, reference %v", seed, i, page, entries, got, want)
			}
		}
		if tl.Accesses != ref.Accesses || tl.Misses != ref.Misses {
			t.Fatalf("seed %d: counters %d/%d, reference %d/%d", seed, tl.Accesses, tl.Misses, ref.Accesses, ref.Misses)
		}
		if tl.used != len(ref.tags) {
			t.Fatalf("seed %d: %d resident pages, reference %d", seed, tl.used, len(ref.tags))
		}
		buckets := 0
		for _, b := range tl.index {
			if b != 0 {
				buckets++
			}
		}
		if buckets != tl.used {
			t.Fatalf("seed %d: %d index buckets for %d resident pages", seed, buckets, tl.used)
		}
		for s := 0; s < tl.used; s++ {
			if tk, ok := ref.tags[tl.pages[s]]; !ok || tk != tl.ticks[s] {
				t.Fatalf("seed %d: page %#x tick %d resident, reference %d (present %v)", seed, tl.pages[s], tl.ticks[s], tk, ok)
			}
		}
	}
}
