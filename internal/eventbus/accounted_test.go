package eventbus

import (
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

func acctArena(t *testing.T) *enclave.Arena {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	enc, err := p.ECreate(8<<20, signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("svc")); err != nil {
		t.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		t.Fatal(err)
	}
	arena, err := enc.HeapArena()
	if err != nil {
		t.Fatal(err)
	}
	return arena
}

func TestAccountedPublishSubscribe(t *testing.T) {
	bus := New()
	var root cryptbox.Key
	key, err := TopicKey(root, "grid/readings")
	if err != nil {
		t.Fatal(err)
	}

	pubArena := acctArena(t)
	subArena := acctArena(t)
	pubMem, subMem := pubArena.Memory(), subArena.Memory()
	pub, err := OpenPublisher(EndpointConfig{Bus: bus, Topic: "grid/readings", Key: key, Arena: pubArena})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := OpenSubscriber(EndpointConfig{Bus: bus, Topic: "grid/readings", Key: key, Arena: subArena})
	if err != nil {
		t.Fatal(err)
	}

	pubMem.ResetAccounting()
	subMem.ResetAccounting()
	for i := 0; i < 32; i++ {
		if _, err := pub.PublishBatch([][]byte{[]byte("meter-00042 1.234 kW")}); err != nil {
			t.Fatal(err)
		}
	}
	if pubMem.Cycles() == 0 {
		t.Fatal("accounted publisher charged no cycles")
	}
	got, err := sub.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("received %d messages, want 32", len(got))
	}
	if subMem.Cycles() == 0 {
		t.Fatal("accounted subscriber charged no cycles")
	}
}

func TestAccountedEndpointsMatchPlainSemantics(t *testing.T) {
	bus := New()
	var root cryptbox.Key
	key, err := TopicKey(root, "t")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := OpenPublisher(EndpointConfig{Bus: bus, Topic: "t", Key: key, Arena: acctArena(t)})
	if err != nil {
		t.Fatal(err)
	}
	plainSub, err := NewSubscriber(bus, "t", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.PublishBatch([][]byte{[]byte("hello")}); err != nil {
		t.Fatal(err)
	}
	msgs, err := plainSub.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0]) != "hello" {
		t.Fatalf("plain subscriber got %q from accounted publisher", msgs)
	}
}
