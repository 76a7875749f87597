package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"securecloud/internal/cryptbox"
)

func storeKey() cryptbox.Key {
	var k cryptbox.Key
	k[5] = 0x42
	return k
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(storeKey(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := newStore(t)
	if err := s.Put("meter/001", []byte("42.7")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("meter/001")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "42.7" {
		t.Fatalf("got %q", got)
	}
	if !s.Delete("meter/001") {
		t.Fatal("delete missed")
	}
	if s.Delete("meter/001") {
		t.Fatal("double delete reported true")
	}
	if _, err := s.Get("meter/001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := newStore(t)
	_ = s.Put("k", []byte("v1"))
	_ = s.Put("k", []byte("v2"))
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestOrderedIteration(t *testing.T) {
	s := newStore(t)
	keys := []string{"d", "a", "c", "b", "e"}
	for _, k := range keys {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Keys()
	want := []string{"a", "b", "c", "d", "e"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v", got)
		}
	}
}

func TestRange(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := s.Range("k03", "k07")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("Range returned %d pairs, want 4", len(pairs))
	}
	if pairs[0].Key != "k03" || pairs[3].Key != "k06" {
		t.Fatalf("Range bounds wrong: %v..%v", pairs[0].Key, pairs[3].Key)
	}
	all, err := s.Range("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("full Range returned %d", len(all))
	}
}

func TestValuesEncryptedAtRest(t *testing.T) {
	s := newStore(t)
	if err := s.Put("k", []byte("SENSITIVE-READING")); err != nil {
		t.Fatal(err)
	}
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		if bytes.Contains(n.value, []byte("SENSITIVE-READING")) {
			t.Fatal("plaintext at rest")
		}
	}
}

func TestValueSwapDetected(t *testing.T) {
	s := newStore(t)
	_ = s.Put("a", []byte("va"))
	_ = s.Put("b", []byte("vb"))
	// Storage layer swaps the sealed values behind the keys.
	na, nb := s.head.next[0], s.head.next[0].next[0]
	na.value, nb.value = nb.value, na.value
	if _, err := s.Get("a"); !errors.Is(err, ErrTampered) {
		t.Fatalf("value swap undetected: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte{byte(i), byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(storeKey(), 2, blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := Equal(s, restored)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("restored store differs")
	}
	if restored.Version() != s.Version() {
		t.Fatal("version not carried through snapshot")
	}
}

func TestSnapshotTamperDetected(t *testing.T) {
	s := newStore(t)
	_ = s.Put("k", []byte("v"))
	blob, _ := s.Snapshot()
	blob[len(blob)/2] ^= 1
	if _, err := Load(storeKey(), 2, blob, 0); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestSnapshotWrongKey(t *testing.T) {
	s := newStore(t)
	_ = s.Put("k", []byte("v"))
	blob, _ := s.Snapshot()
	var wrong cryptbox.Key
	wrong[0] = 0xEE
	if _, err := Load(wrong, 2, blob, 0); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestRollbackDetected(t *testing.T) {
	s := newStore(t)
	_ = s.Put("balance", []byte("100"))
	oldBlob, _ := s.Snapshot()
	oldVersion := s.Version()
	_ = s.Put("balance", []byte("50"))
	// The attacker serves the old snapshot; the loader expects at least
	// the current version.
	if _, err := Load(storeKey(), 2, oldBlob, oldVersion+1); !errors.Is(err, ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", err)
	}
	// Loading with the correct expectation works.
	if _, err := Load(storeKey(), 2, oldBlob, oldVersion); err != nil {
		t.Fatal(err)
	}
}

func TestVersionMonotonic(t *testing.T) {
	s := newStore(t)
	v0 := s.Version()
	_ = s.Put("a", []byte("1"))
	v1 := s.Version()
	s.Delete("a")
	v2 := s.Version()
	if !(v0 < v1 && v1 < v2) {
		t.Fatalf("version not monotonic: %d %d %d", v0, v1, v2)
	}
}

func TestLargeStoreOrderedAndComplete(t *testing.T) {
	s := newStore(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%05d", (i*7919)%n), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != n {
		t.Fatalf("Len = %d, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("keys not sorted")
	}
}

func TestPropPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	f := func(key string, value []byte) bool {
		if err := s.Put(key, value); err != nil {
			return false
		}
		got, err := s.Get(key)
		return err == nil && bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropModelEquivalence(t *testing.T) {
	// The skip list must behave like a map + sort.
	type op struct {
		Key    string
		Value  []byte
		Delete bool
	}
	f := func(ops []op) bool {
		s, err := NewStore(storeKey(), Options{Seed: 3})
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		for _, o := range ops {
			if o.Delete {
				delete(model, o.Key)
				s.Delete(o.Key)
			} else {
				model[o.Key] = o.Value
				if err := s.Put(o.Key, o.Value); err != nil {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		pairs, err := s.Range("", "")
		if err != nil {
			return false
		}
		for _, p := range pairs {
			if !bytes.Equal(model[p.Key], p.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
