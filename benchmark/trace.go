package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer's public
// function. Parent is the index of the span that was open on the driver
// goroutine when this one began (-1 for a root); Op is the id of the
// workload op the span belongs to, so the spans of one op share it.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int64  `json:"op"`
}

// tracer records spans in memory. The driver is one goroutine, so nesting
// is a plain stack; decorators that the layers call from their own worker
// goroutines (container pull workers fetching blobs) record completed
// spans with leaf, which only needs the mutex. A nil tracer, or one that
// is switched off, records nothing — the untraced half of a trace run
// goes through the same decorators at the cost of one branch.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
	stack []int32
	op    int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// nextOp starts a new op id; spans recorded from now on carry it.
func (t *tracer) nextOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

func noop() {}

// span opens a span on the driver goroutine and returns the func that
// closes it: defer tr.span("layer.call")().
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return noop
	}
	idx := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.epoch).Nanoseconds(), Parent: parent, Op: t.op})
	t.stack = append(t.stack, idx)
	t.mu.Unlock()
	return func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[idx].EndNS = end
		if n := len(t.stack); n > 0 && t.stack[n-1] == idx {
			t.stack = t.stack[:n-1]
		}
		t.mu.Unlock()
	}
}

// leaf records a completed span under whatever span the driver has open.
// Safe from any goroutine.
func (t *tracer) leaf(name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		Name:    name,
		StartNS: start.Sub(t.epoch).Nanoseconds(),
		EndNS:   end.Sub(t.epoch).Nanoseconds(),
		Parent:  parent,
		Op:      t.op,
	})
}

// spanAgg is the aggregate of all spans of one name. Self is the summed
// duration minus the part of each span its children cover (the union of
// the children's intervals, since pull workers overlap).
type spanAgg struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (t *tracer) aggregate() map[string]spanAgg {
	out := make(map[string]spanAgg)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	for i, s := range t.spans {
		dur := s.EndNS - s.StartNS
		covered := int64(0)
		if kids := children[int32(i)]; len(kids) > 0 {
			sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
			curLo, curHi := kids[0].lo, kids[0].hi
			for _, k := range kids[1:] {
				if k.lo > curHi {
					covered += curHi - curLo
					curLo, curHi = k.lo, k.hi
				} else if k.hi > curHi {
					curHi = k.hi
				}
			}
			covered += curHi - curLo
		}
		a := out[s.Name]
		a.Count++
		a.TotalUS += float64(dur) / 1e3
		a.SelfUS += float64(dur-covered) / 1e3
		out[s.Name] = a
	}
	return out
}

// rootCoveredSince sums the durations of the root spans that began at or
// after from: the part of a traced window spent inside any layer call.
func (t *tracer) rootCoveredSince(from time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lo := from.Sub(t.epoch).Nanoseconds()
	var n int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.StartNS >= lo {
			n += s.EndNS - s.StartNS
		}
	}
	return n
}

// maxSpansWritten bounds the trace file: the aggregates cover every span,
// the file keeps the first ones for reading a few ops end to end.
const maxSpansWritten = 20000

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	agg := t.aggregate()
	t.mu.Lock()
	n := len(t.spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	doc := struct {
		Workload     string             `json:"workload"`
		Seed         int64              `json:"seed"`
		SpanCount    int                `json:"span_count"`
		SpansWritten int                `json:"spans_written"`
		Aggregates   map[string]spanAgg `json:"aggregates"`
		Spans        []span             `json:"spans"`
	}{workload, seed, len(t.spans), n, agg, t.spans[:n]}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
