package scbr

import (
	"math/rand"

	"securecloud/internal/sim"
)

// WorkloadConfig parameterises the synthetic subscription workload used by
// the Figure 3 harness. Subscriptions are drawn from a virtual containment
// hierarchy — the structure content-based workloads exhibit in practice
// (broad topic filters covering narrower regional filters covering
// individual feeder filters) and the structure SCBR's index exploits.
type WorkloadConfig struct {
	Seed int64
	// Branch is the fan-out of the virtual hierarchy at every level
	// (used when Branches is nil).
	Branch int
	// Branches optionally sets a distinct fan-out per level; its length
	// overrides Depth.
	Branches []int
	// Depth is the number of hierarchy levels below the roots.
	Depth int
	// MinDepth is the minimum subscription depth (default 1). Deeper
	// populations make registration descend — and read — more of the
	// stored database.
	MinDepth int
	// DepthWeights optionally gives the probability of each depth
	// (1-based; normalised internally). When set it overrides
	// MinDepth/uniform depth selection.
	DepthWeights []float64
	// Attrs is the attribute-universe size for the event noise attribute.
	Attrs int
	// ZipfS skews which hierarchy branches are popular (>1).
	ZipfS float64
}

// DefaultWorkload mirrors the SCBR evaluation's filter population: a
// containment hierarchy that fans out modestly near the roots (few, hot,
// general filters) and widely at depth (many, cold, specific filters), so
// a registration's containment search reads a database-size-proportional
// slice of stored filters.
func DefaultWorkload(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:     seed,
		Branches: []int{8, 16, 64, 64, 64},
		// A thin skeleton of broad filters plus a deep majority of
		// specific ones: registrations then read child lists spread
		// across the whole stored database, which is what makes the
		// working set track occupancy (Figure 3's x-axis).
		DepthWeights: []float64{0.05, 0.05, 0.20, 0.35, 0.35},
		Attrs:        100,
		ZipfS:        1.1,
	}
}

// Workload generates subscriptions and matching publications.
type Workload struct {
	cfg    WorkloadConfig
	rng    *rand.Rand
	zipfs  []*rand.Zipf // one per level
	widths []float64    // interval width per level (index 0 = level 1)
	nextID uint64
}

// NewWorkload builds a generator.
func NewWorkload(cfg WorkloadConfig) *Workload {
	if cfg.Branch <= 0 {
		cfg.Branch = 16
	}
	if len(cfg.Branches) > 0 {
		cfg.Depth = len(cfg.Branches)
	} else {
		if cfg.Depth <= 0 {
			cfg.Depth = 4
		}
		cfg.Branches = make([]int, cfg.Depth)
		for i := range cfg.Branches {
			cfg.Branches[i] = cfg.Branch
		}
	}
	if cfg.MinDepth <= 0 {
		cfg.MinDepth = 1
	}
	if cfg.MinDepth > cfg.Depth {
		cfg.MinDepth = cfg.Depth
	}
	if cfg.Attrs <= 0 {
		cfg.Attrs = 100
	}
	rng := sim.NewRand(cfg.Seed)
	w := &Workload{cfg: cfg, rng: rng}
	width := 1e9
	for _, b := range cfg.Branches {
		width /= float64(b)
		w.widths = append(w.widths, width)
		w.zipfs = append(w.zipfs, sim.Zipf(rng, cfg.ZipfS, uint64(b)))
	}
	return w
}

// levelWidth returns the interval width of hierarchy level l (1-based).
func (w *Workload) levelWidth(l int) float64 { return w.widths[l-1] }

// drawDepth samples a subscription depth from DepthWeights, or uniformly
// over [MinDepth, Depth] when no weights are configured.
func (w *Workload) drawDepth() int {
	if len(w.cfg.DepthWeights) == 0 {
		return w.cfg.MinDepth + w.rng.Intn(w.cfg.Depth-w.cfg.MinDepth+1)
	}
	n := len(w.cfg.DepthWeights)
	if n > w.cfg.Depth {
		n = w.cfg.Depth
	}
	var total float64
	for _, p := range w.cfg.DepthWeights[:n] {
		total += p
	}
	v := w.rng.Float64() * total
	for i, p := range w.cfg.DepthWeights[:n] {
		v -= p
		if v < 0 {
			return i + 1
		}
	}
	return n
}

// NextSubscription draws one subscription: a random-depth path through the
// hierarchy (Zipf-skewed branch choices) expressed as nested interval
// predicates, one per scope level. Prefix paths cover extension paths;
// identical paths are equivalent filters and land in the index's
// equivalence buckets.
func (w *Workload) NextSubscription() Subscription {
	w.nextID++
	depth := w.drawDepth()

	lo := 0.0
	var preds []Predicate
	for l := 1; l <= depth; l++ {
		width := w.levelWidth(l)
		branch := float64(w.zipfs[l-1].Uint64())
		lo += branch * width
		preds = append(preds, Predicate{
			Attr:     scopeAttr(l),
			Interval: Interval{Lo: lo, Hi: lo + width},
		})
	}
	s := Subscription{ID: w.nextID, Preds: preds}
	s.Normalize()
	return s
}

// NextEvent draws a publication that lands somewhere in the hierarchy, so
// matching exercises the same index regions registration populates.
func (w *Workload) NextEvent() Event {
	attrs := make(map[string]float64, w.cfg.Depth+1)
	lo := 0.0
	for l := 1; l <= w.cfg.Depth; l++ {
		width := w.levelWidth(l)
		branch := float64(w.zipfs[l-1].Uint64())
		lo += branch * width
		v := lo + w.rng.Float64()*width
		attrs[scopeAttr(l)] = v
	}
	attrs[leafAttr(w.rng.Intn(w.cfg.Attrs))] = w.rng.Float64() * float64(w.nextID+1)
	return Event{Attrs: attrs, Payload: []byte("payload")}
}

// scopeAttrs holds the per-level attribute names, so the generator's
// predicates and events share one string per level instead of allocating
// a copy each. A broker sees none of these strings — it decodes fresh
// copies from the envelope — so the index compares interned attribute IDs
// (filter.go), not names.
var scopeAttrs = [...]string{
	"scope0", "scope1", "scope2", "scope3", "scope4",
	"scope5", "scope6", "scope7", "scope8", "scope9",
}

func scopeAttr(level int) string {
	if level >= 0 && level < len(scopeAttrs) {
		return scopeAttrs[level]
	}
	// Deeper levels keep the historical single-rune suffix so attribute
	// names — and with them canonical predicate order and every derived
	// metric — are unchanged for any configurable depth.
	return "scope" + string(rune('0'+level))
}

func leafAttr(i int) string {
	return "leaf" + itoa(i)
}

// itoa is a tiny allocation-free integer formatter for attribute names.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 && i > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
