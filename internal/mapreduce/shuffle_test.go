package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"securecloud/internal/codec/codectest"
	"securecloud/internal/cryptbox"
	"securecloud/internal/shard"
)

func TestKVRecordRoundTrip(t *testing.T) {
	long := strings.Repeat("k", 200) // ≥ 128 bytes: a two-byte length
	for _, c := range []struct {
		key    string
		value  []byte
		lenLen int
	}{
		{"", []byte("v"), 1},
		{"feeder-003", nil, 1},
		{"feeder-003", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 1},
		{long, []byte("value"), 2},
	} {
		rec := appendKV(nil, c.key, c.value)
		if want := c.lenLen + len(c.key) + len(c.value); len(rec) != want {
			t.Fatalf("key %d bytes: record is %d bytes, want %d", len(c.key), len(rec), want)
		}
		k, v, err := decodeKV(rec)
		if err != nil {
			t.Fatalf("key %d bytes: %v", len(c.key), err)
		}
		if string(k) != c.key || !bytes.Equal(v, c.value) {
			t.Fatalf("round trip = %q/%q, want %q/%q", k, v, c.key, c.value)
		}
		if cap(v) != len(v) || cap(k) != len(k) {
			t.Fatal("decoded slices may grow into the record")
		}
	}
}

// kvFormat is the shuffle record under the shared decode property. The
// value runs to the end of the record, so only the key length and the key
// delimit themselves.
func kvFormat(rec []byte) ([]byte, int, int, error) {
	k, v, err := decodeKV(rec)
	if err != nil {
		return nil, 0, 0, err
	}
	return appendKV(nil, string(k), v), 0, len(rec) - len(v), nil
}

// FuzzDecodeShuffleRecord: the shuffle record satisfies the shared decode
// property — every rejection wraps errBadRecord, an accepted record
// re-encodes to its own bytes, and a cut key length or key is rejected.
func FuzzDecodeShuffleRecord(f *testing.F) {
	for _, rec := range [][]byte{
		{},
		bytes.Repeat([]byte{0xff}, 11), // varint overflow
		{0x05, 'a', 'b'},               // key past the end
		appendKV(nil, "feeder-001", []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		appendKV(nil, strings.Repeat("k", 200), []byte("value")), // two-byte length
		{0x80},            // truncated varint
		{0x81, 0x00, 'a'}, // non-minimal varint
		{0x80, 0x00},      // two-byte zero
		binary.AppendUvarint(nil, 1<<62),
	} {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		codectest.Check(t, rec, true, kvFormat, errBadRecord)
	})
}

// spreadJob is a word count whose words are certain to land in at least
// two of its four partitions (checked, not assumed).
func spreadJob(t *testing.T) Job {
	t.Helper()
	var words []string
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		w := fmt.Sprintf("w%02d", i)
		words = append(words, w)
		seen[shard.Of(w, 4)] = true
	}
	if len(seen) < 2 {
		t.Fatal("test words all hash to one partition")
	}
	job := wordCountJob(map[string]string{"d": strings.Join(words, " ")})
	job.Reducers = 4
	return job
}

func TestParallelShuffleCrossPartitionMoveDetected(t *testing.T) {
	e := parallelEngine(t, 2, 0)
	_, err := e.RunWithShuffleHook(spreadJob(t), func(parts [][][]byte) {
		from := -1
		for p, part := range parts {
			if len(part) == 0 {
				continue
			}
			if from < 0 {
				from = p
				continue
			}
			parts[p] = append(parts[p], parts[from][0])
			return
		}
	})
	if !errors.Is(err, ErrShuffleTampered) {
		t.Fatalf("err = %v, want ErrShuffleTampered", err)
	}
}

// TestShuffleMalformedRecordFails: a body that authenticates but does not
// parse — re-sealed under the right partition key and AAD — fails the run
// with an error at both worker-pool sizes instead of panicking.
func TestShuffleMalformedRecordFails(t *testing.T) {
	var root cryptbox.Key
	root[0] = 0x44
	job := spreadJob(t)
	reseal := func(parts [][][]byte) {
		boxes, err := partitionBoxes(root, len(parts))
		if err != nil {
			t.Error(err)
			return
		}
		for p, part := range parts {
			if len(part) > 0 {
				bad, err := boxes[p].Seal([]byte{0x7f, 'x'}, shuffleAAD(job.Name, p))
				if err != nil {
					t.Error(err)
				}
				part[0] = bad
				return
			}
		}
	}
	for _, e := range []*ParallelSecureEngine{secureEngine(t), parallelEngine(t, 2, 0)} {
		if _, err := e.RunWithShuffleHook(job, reseal); !errors.Is(err, errBadRecord) {
			t.Errorf("%d workers: err = %v, want errBadRecord", e.Shards(), err)
		}
	}
}

// BenchmarkParallelSecureRun is billing_job's map/reduce at the layer:
// 4 800 readings keyed feeder|meter|tick, 2 workers, 4 reducers, the map
// emitting each reading under its feeder.
func BenchmarkParallelSecureRun(b *testing.B) {
	input := make([]KV, 0, 4800)
	for m := 0; m < 50; m++ {
		for tick := 0; tick < 96; tick++ {
			input = append(input, KV{
				Key:   fmt.Sprintf("feeder-%03d|meter-%04d|%02d", m/10, m, tick),
				Value: binary.LittleEndian.AppendUint64(nil, uint64(m*tick)),
			})
		}
	}
	job := Job{
		Name:  "daily-billing",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			emit(key[:strings.IndexByte(key, '|')], value)
		},
		Reduce: func(_ string, values [][]byte) ([]byte, error) {
			var sum uint64
			for _, v := range values {
				sum += binary.LittleEndian.Uint64(v)
			}
			return binary.LittleEndian.AppendUint64(nil, sum), nil
		},
		Reducers: 4,
	}
	var root cryptbox.Key
	e, err := NewParallelSecureEngine(root, ParallelConfig{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeShuffleRecord decodes one billing-shaped shuffle record:
// a feeder key and an 8-byte reading, what a reducer opens per record.
func BenchmarkDecodeShuffleRecord(b *testing.B) {
	rec := appendKV(nil, "feeder-003", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := decodeKV(rec); err != nil {
			b.Fatal(err)
		}
	}
}
