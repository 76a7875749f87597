package kvstore

import (
	"fmt"
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

// accountedStore builds a store charging into a fresh enclave view.
func accountedStore(t *testing.T) (*Store, *enclave.Memory) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	enc, err := p.ECreate(32<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("kv")); err != nil {
		t.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		t.Fatal(err)
	}
	arena, err := enc.HeapArena()
	if err != nil {
		t.Fatal(err)
	}
	var k cryptbox.Key
	k[0] = 7
	s, err := NewStore(k, Options{Seed: 1, Accounting: Accounting{Mem: enc.Memory(), Arena: arena}})
	if err != nil {
		t.Fatal(err)
	}
	return s, enc.Memory()
}

func TestAccountedStoreChargesTraversals(t *testing.T) {
	s, mem := accountedStore(t)
	mem.ResetAccounting()
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("meter-%04d", i), []byte("1.21 kW")); err != nil {
			t.Fatal(err)
		}
	}
	afterPut := mem.Cycles()
	if afterPut == 0 {
		t.Fatal("accounted Put charged no cycles")
	}
	if _, err := s.Get("meter-0100"); err != nil {
		t.Fatal(err)
	}
	if mem.Cycles() == afterPut {
		t.Fatal("accounted Get charged no cycles")
	}
}

func TestAccountedStoreBehavesLikePlain(t *testing.T) {
	acc, _ := accountedStore(t)
	var k cryptbox.Key
	k[0] = 7
	plain, err := NewStore(k, Options{Seed: 1}) // same seed: identical skip-list geometry
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", (i*37)%100)
		val := []byte(fmt.Sprintf("v%d", i))
		if err := acc.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if err := plain.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	acc.Delete("k037")
	plain.Delete("k037")
	eq, err := Equal(acc, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("accounted store diverged from plain store")
	}
	ra, err := acc.Range("k010", "k020")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Range("k010", "k020")
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rp) {
		t.Fatalf("accounted Range returned %d records, plain %d", len(ra), len(rp))
	}
}

func TestAccountedStoreFaultsBeyondEPC(t *testing.T) {
	// A store bigger than the EPC must incur EPC faults on access, the
	// kvstore analogue of the paper's Figure 3 regime change.
	p := enclave.NewPlatform(enclave.Config{
		EPCBytes:         64 * 4096,
		EPCReservedBytes: 16 * 4096,
		LLCBytes:         16 << 10,
		LLCWays:          4,
		LineSize:         64,
		PageSize:         4096,
	})
	var signer cryptbox.Digest
	enc, err := p.ECreate(4<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("kv")); err != nil {
		t.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		t.Fatal(err)
	}
	arena, _ := enc.HeapArena()
	var k cryptbox.Key
	s, err := NewStore(k, Options{Seed: 1, Accounting: Accounting{Mem: enc.Memory(), Arena: arena}})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 2048)
	for i := 0; i < 700; i++ { // ~1.4 MB of records >> 48-page EPC
		if err := s.Put(fmt.Sprintf("key-%04d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	enc.Memory().ResetAccounting()
	for i := 0; i < 700; i += 7 {
		if _, err := s.Get(fmt.Sprintf("key-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Memory().Faults() == 0 {
		t.Fatal("no EPC faults despite store exceeding the EPC")
	}
}
