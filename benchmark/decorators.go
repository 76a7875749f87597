package main

import (
	"time"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/eventbus"
	"securecloud/internal/image"
	"securecloud/internal/kvstore"
	"securecloud/internal/microsvc"
	"securecloud/internal/transfer"
)

// The decorators below sit on interfaces the layers already accept
// (microsvc.Transport, container.PullSource, kvstore.SnapshotStore), so a
// span can be recorded at a layer boundary the driver does not call
// itself. With a nil or switched-off tracer they only forward.

// tracedTransport records the time a PlaneClient spends in its transport:
// the HTTP round trips of the wire front end.
type tracedTransport struct {
	inner microsvc.Transport
	tr    *tracer
}

func (t *tracedTransport) SendFrames(frames [][]byte) error {
	defer t.tr.span("wire.send")()
	return t.inner.SendFrames(frames)
}

func (t *tracedTransport) RecvFrames() ([][]byte, error) {
	defer t.tr.span("wire.recv")()
	return t.inner.RecvFrames()
}

func (t *tracedTransport) Close() { t.inner.Close() }

// captureTransport keeps the sealed frames a PlaneClient hands it, for
// probes that need real frames without a plane behind them.
type captureTransport struct{ batches [][][]byte }

func (t *captureTransport) SendFrames(frames [][]byte) error {
	t.batches = append(t.batches, frames)
	return nil
}
func (t *captureTransport) RecvFrames() ([][]byte, error) { return nil, nil }
func (t *captureTransport) Close()                        {}

// busHub is the benchmark's own in-process transport: one publisher on the
// request topic and one subscriber on the reply topic, shared by the
// clients, with replies sorted into per-tenant mailboxes by their
// cleartext tenant header — what the wire gateway does, without the wire.
type busHub struct {
	pub  *eventbus.Publisher
	sub  *eventbus.Subscriber
	mail map[string][][]byte
	tr   *tracer
}

func newBusHub(bus *eventbus.Bus, keys attest.ServiceKeys, tr *tracer) (*busHub, error) {
	inKey, _ := keys.Topic(planeIn)
	outKey, _ := keys.Topic(planeOut)
	pub, err := eventbus.NewPublisher(bus, planeIn, inKey)
	if err != nil {
		return nil, err
	}
	sub, err := eventbus.NewSubscriber(bus, planeOut, outKey)
	if err != nil {
		return nil, err
	}
	return &busHub{pub: pub, sub: sub, mail: make(map[string][][]byte), tr: tr}, nil
}

func (h *busHub) close() { h.sub.Close() }

// hubTransport is one tenant's view of the hub.
type hubTransport struct {
	hub    *busHub
	tenant string
}

func (t *hubTransport) SendFrames(frames [][]byte) error {
	defer t.hub.tr.span("eventbus.publish")()
	_, err := t.hub.pub.PublishBatch(frames)
	return err
}

func (t *hubTransport) RecvFrames() ([][]byte, error) {
	h := t.hub
	end := h.tr.span("eventbus.poll")
	frames, err := h.sub.Receive()
	end()
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		tenant, _, err := microsvc.PeekFrameTenant(f)
		if err != nil {
			return nil, err
		}
		h.mail[tenant] = append(h.mail[tenant], f)
	}
	out := h.mail[t.tenant]
	delete(h.mail, t.tenant)
	return out, nil
}

func (t *hubTransport) Close() {}

// tracedPullSource records each blob fetch a container engine makes. Pull
// workers call it concurrently, so the spans are leaves.
type tracedPullSource struct {
	inner container.PullSource
	tr    *tracer
}

func (s *tracedPullSource) Manifest(name, tag string) (image.Manifest, error) {
	return s.inner.Manifest(name, tag)
}

func (s *tracedPullSource) LayerManifest(d cryptbox.Digest) (*transfer.Manifest, error) {
	return s.inner.LayerManifest(d)
}

func (s *tracedPullSource) Blob(d cryptbox.Digest) ([]byte, error) {
	defer s.tr.leaf("registry.blob", time.Now())
	return s.inner.Blob(d)
}

// tracedSnapshotStore records the registry calls of a durable store's
// Snapshot, and counts the chunks they carried.
type tracedSnapshotStore struct {
	inner  kvstore.SnapshotStore
	tr     *tracer
	chunks int
}

func (s *tracedSnapshotStore) PutBlobSet(m *transfer.Manifest, chunks [][]byte) (int, error) {
	defer s.tr.span("registry.putblobset")()
	if s.tr.enabled() {
		s.chunks += len(chunks)
	}
	return s.inner.PutBlobSet(m, chunks)
}

func (s *tracedSnapshotStore) PublishSnapshot(name string, seq uint64, sealed []byte) error {
	return s.inner.PublishSnapshot(name, seq, sealed)
}

func (s *tracedSnapshotStore) LatestSnapshot(name string) (uint64, []byte, bool) {
	return s.inner.LatestSnapshot(name)
}

func (s *tracedSnapshotStore) SnapshotAt(name string, seq uint64) ([]byte, bool) {
	return s.inner.SnapshotAt(name, seq)
}
