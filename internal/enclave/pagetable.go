package enclave

// pageTable holds one value per simulated page — EPC residency, LLC
// line bitmaps, first-touch flags — and reads zero for a page never
// set. Both address regions are bump-allocated upward: untrusted memory
// from AllocUntrusted's base, ELRANGEs from enclaveRangeBase. So each
// region is a dense slice indexed from its own origin, grown on demand to
// the highest page set, and a lookup is one compare plus one array load.
type pageTable[T uint32 | uint64 | bool] struct {
	split uint64 // enclaveRangeBase/pageSize: the first enclave-range page
	low   []T    // pages [0, split), indexed by page
	high  []T    // pages [split, ...), indexed by page-split
}

// pageTableSlack is how many pages past the one being set a region grows
// by, so a sequential walk does not grow it on every new page.
const pageTableSlack = 1024

func newPageTable[T uint32 | uint64 | bool](pageSize uint64) pageTable[T] {
	return pageTable[T]{split: enclaveRangeBase / pageSize}
}

// get returns page's value, or zero when it was never set.
func (t *pageTable[T]) get(page uint64) (v T) {
	if page >= t.split {
		if off := page - t.split; off < uint64(len(t.high)) {
			v = t.high[off]
		}
	} else if page < uint64(len(t.low)) {
		v = t.low[page]
	}
	return v
}

// slot returns page's value for update, first growing its region to
// hold it.
func (t *pageTable[T]) slot(page uint64) *T {
	s, off := &t.low, page
	if page >= t.split {
		s, off = &t.high, page-t.split
	}
	if off >= uint64(len(*s)) {
		*s = append(*s, make([]T, off+1+pageTableSlack-uint64(len(*s)))...)
	}
	return &(*s)[off]
}
