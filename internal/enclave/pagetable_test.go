package enclave

import (
	"strings"
	"testing"

	"securecloud/internal/sim"
)

// TestPageTableMatchesMap drives seeded get/set scripts against a map
// reference model, on the pages where the table's layout changes: page 0,
// AllocUntrusted's base, either side of the enclave-range split, and either
// side of each region's current end as it grows. A page never set must
// read as zero.
func TestPageTableMatchesMap(t *testing.T) {
	// With 4 KiB pages the last low page is 2^32 entries above page 0, so
	// the script only reads it; 1 GiB pages bring the split down to 16384
	// and let the script write there too.
	for _, pageSize := range []uint64{4096, 1 << 30} {
		tab := newPageTable[uint32](pageSize)
		ref := map[uint64]uint32{}
		split := enclaveRangeBase / pageSize
		check := func(page uint64) {
			t.Helper()
			if got, want := tab.get(page), ref[page]; got != want {
				t.Fatalf("pageSize %d: get(%d) = %d, want %d", pageSize, page, got, want)
			}
		}
		r := sim.NewRand(int64(pageSize))
		for step := 0; step < 4000; step++ {
			low, high := uint64(len(tab.low)), split+uint64(len(tab.high))
			writable := []uint64{0, (1 << 20) / pageSize, split, split + 1, low, low + 1, high, high + 1}
			if low > 0 {
				writable = append(writable, low-1)
			}
			if high > split {
				writable = append(writable, high-1)
			}
			if split <= 1<<14 {
				writable = append(writable, split-1)
			}
			page := writable[r.Intn(len(writable))]
			if r.Intn(2) == 0 {
				v := uint32(r.Intn(3))
				*tab.slot(page) = v
				ref[page] = v
			}
			check(page)
			check(page + 1)
			check(split - 1)
			check(^uint64(0))
		}
		if len(tab.low) == 0 || len(tab.high) == 0 {
			t.Fatalf("pageSize %d: script never grew both regions", pageSize)
		}
		for page := range ref {
			check(page)
		}
		// Every page in the grown regions that the script never set.
		for page := range uint64(len(tab.low)) {
			check(page)
		}
		for off := range uint64(len(tab.high)) {
			check(split + off)
		}
	}
}

// TestNewPlatformRejectsUnsupportedGeometry: the cache and pager index
// sets and pages by mask and shift, a set's recency order word lists at
// most 16 ways, and a page's line bitmap holds at most 64 lines, so
// NewPlatform refuses any other geometry, naming the fields in its panic.
func TestNewPlatformRejectsUnsupportedGeometry(t *testing.T) {
	NewPlatform(DefaultConfig())
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"LineSize 48", func(c *Config) { c.LineSize = 48 }},
		{"PageSize 3000", func(c *Config) { c.PageSize = 3000 }},
		{"3 LLC ways at 8 MiB", func(c *Config) { c.LLCWays = 3 }},
		{"PageSize < LineSize", func(c *Config) { c.LineSize, c.PageSize = 4096, 2048 }},
		{"32 LLC ways", func(c *Config) { c.LLCWays = 32 }},
		{"128 lines per page", func(c *Config) { c.PageSize = 8192 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "LineSize") || !strings.Contains(msg, "PageSize") || !strings.Contains(msg, "LLCWays") {
					t.Errorf("%s: NewPlatform panic = %q, want one naming LineSize, PageSize and LLCWays", tc.name, msg)
				}
			}()
			NewPlatform(cfg)
		}()
	}
}
