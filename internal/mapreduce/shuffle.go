package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"securecloud/internal/cryptbox"
	"securecloud/internal/shard"
)

// ErrShuffleTampered is returned when sealed intermediate data fails
// authentication — the untrusted shuffle storage modified, dropped into
// the wrong partition, or replayed a record.
var ErrShuffleTampered = errors.New("mapreduce: shuffle record failed authentication")

// errBadRecord reports an authenticated shuffle record whose plaintext does
// not parse. Only a holder of the partition key can produce one.
var errBadRecord = errors.New("mapreduce: malformed shuffle record")

// appendKV appends the shuffle record of one intermediate pair to dst:
//
//	uvarint(len(key)) | key | value
//
// The value runs to the end of the record, so a pair costs its own bytes
// plus one to three length bytes.
func appendKV(dst []byte, key string, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, value...)
}

// decodeKV splits a shuffle record into its key and value, both aliasing
// rec with their capacity capped, so a reducer appending to a value cannot
// overwrite anything after it. A length that runs past the record, or that
// is not minimally encoded, is rejected: every record decodeKV accepts
// re-encodes to the same bytes.
func decodeKV(rec []byte) (key, value []byte, err error) {
	n, w := binary.Uvarint(rec)
	if w <= 0 || (w > 1 && rec[w-1] == 0) || n > uint64(len(rec)-w) {
		return nil, nil, errBadRecord
	}
	end := w + int(n)
	return rec[w:end:end], rec[end:len(rec):len(rec)], nil
}

// partitionBoxes derives one sealing box per shuffle partition from the
// root key, under the label "shuffle-partition-<p>". Every task of a run
// shares them read-only (a Box is safe for concurrent Seal/Open), and both
// engines derive the same keys, so their shuffles are interchangeable.
func partitionBoxes(root cryptbox.Key, reducers int) ([]*cryptbox.Box, error) {
	boxes := make([]*cryptbox.Box, reducers)
	for p := range boxes {
		key, err := cryptbox.DeriveKey(root, "shuffle-partition-"+strconv.Itoa(p))
		if err != nil {
			return nil, err
		}
		if boxes[p], err = cryptbox.NewBox(key); err != nil {
			return nil, err
		}
	}
	return boxes, nil
}

// shuffleAAD binds a sealed record to its job and partition.
func shuffleAAD(job string, p int) []byte {
	return []byte("shuffle|" + job + "|" + strconv.Itoa(p))
}

// shuffleAADs builds every partition's AAD once, for all records of a run.
func shuffleAADs(job string, reducers int) [][]byte {
	aads := make([][]byte, reducers)
	for p := range aads {
		aads[p] = shuffleAAD(job, p)
	}
	return aads
}

// stageFunc is told the size of each record a task moves through its
// enclave, in order: reads of input and sealed records (write false),
// writes of sealed and reduced records (write true). The parallel engine
// charges them to the worker's staging region; nil charges nothing.
type stageFunc func(n int, write bool)

// mapSplit maps one input split, sealing every emitted pair under its
// partition's box and AAD. It returns each partition's sealed records in
// emission order.
func mapSplit(job *Job, boxes []*cryptbox.Box, aads [][]byte, split []KV, stage stageFunc) ([][][]byte, error) {
	out := make([][][]byte, job.Reducers)
	var plain []byte
	var failed error
	for _, rec := range split {
		if stage != nil {
			stage(len(rec.Key)+len(rec.Value), false)
		}
		job.Map(rec.Key, rec.Value, func(k string, v []byte) {
			if failed != nil {
				return
			}
			p := shard.Of(k, job.Reducers)
			plain = appendKV(plain[:0], k, v)
			sealed, err := boxes[p].Seal(plain, aads[p])
			if err != nil {
				failed = err
				return
			}
			if stage != nil {
				stage(len(sealed), true)
			}
			out[p] = append(out[p], sealed)
		})
		if failed != nil {
			return nil, failed
		}
	}
	return out, nil
}

// reducePartition opens and decodes partition p's sealed records, groups
// their values by key in arrival order, and reduces the keys in ascending
// order, handing each result to emit.
func reducePartition(job *Job, box *cryptbox.Box, aad []byte, p int, sealed [][]byte, stage stageFunc, emit func(k string, v []byte)) error {
	groups := make(map[string][][]byte)
	for _, rec := range sealed {
		if stage != nil {
			stage(len(rec), false)
		}
		raw, err := box.Open(rec, aad)
		if err != nil {
			return fmt.Errorf("%w: partition %d", ErrShuffleTampered, p)
		}
		k, v, err := decodeKV(raw)
		if err != nil {
			return fmt.Errorf("%w: partition %d", err, p)
		}
		groups[string(k)] = append(groups[string(k)], v)
	}
	for _, k := range sortedKeys(groups) {
		v, err := job.Reduce(k, groups[k])
		if err != nil {
			return fmt.Errorf("mapreduce %s: reduce %q: %w", job.Name, k, err)
		}
		if stage != nil {
			stage(len(k)+len(v), true)
		}
		emit(k, v)
	}
	return nil
}
