package eventbus

import (
	"testing"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
)

func acctView(t *testing.T) Accounting {
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
	return Accounting{Mem: enc.Memory(), Arena: arena}
}

func TestAccountedPublishSubscribe(t *testing.T) {
	bus := New()
	var root cryptbox.Key
	key, err := TopicKey(root, "grid/readings")
	if err != nil {
		t.Fatal(err)
	}

	pubAcct := acctView(t)
	subAcct := acctView(t)
	pub, err := OpenPublisher(EndpointConfig{Bus: bus, Topic: "grid/readings", Key: key, Accounting: pubAcct})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := OpenSubscriber(EndpointConfig{Bus: bus, Topic: "grid/readings", Key: key, Accounting: subAcct})
	if err != nil {
		t.Fatal(err)
	}

	pubAcct.Mem.ResetAccounting()
	subAcct.Mem.ResetAccounting()
	for i := 0; i < 32; i++ {
		if _, err := pub.PublishBatch([][]byte{[]byte("meter-00042 1.234 kW")}); err != nil {
			t.Fatal(err)
		}
	}
	if pubAcct.Mem.Cycles() == 0 {
		t.Fatal("accounted publisher charged no cycles")
	}
	got, err := sub.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("received %d messages, want 32", len(got))
	}
	if subAcct.Mem.Cycles() == 0 {
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
	pub, err := OpenPublisher(EndpointConfig{Bus: bus, Topic: "t", Key: key, Accounting: acctView(t)})
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
