package main

import (
	"strings"
	"testing"

	"securecloud/internal/microsvc"
	"securecloud/internal/wire"
)

// faultyTransport is the stack's HTTP plane transport committing one fault,
// once, on its first non-empty receive: "replay" delivers the first reply
// frame twice, "drop" never delivers it.
type faultyTransport struct {
	*wire.PlaneTransport
	fault string
	done  bool
}

func (t *faultyTransport) RecvFrames() ([][]byte, error) {
	frames, err := t.PlaneTransport.RecvFrames()
	if err != nil || len(frames) == 0 || t.done {
		return frames, err
	}
	t.done = true
	if t.fault == "drop" {
		return frames[1:], nil
	}
	// Poll opens a frame in place, so the replayed frame is a copy.
	return append(frames, append([]byte(nil), frames[0]...)), nil
}

// wireLoadWithFault runs the wire suite's plane load on a fresh stack whose
// first client reaches the server through a faultyTransport.
func wireLoadWithFault(t *testing.T, fault string) (map[string]float64, error) {
	t.Helper()
	s, err := buildWireStack()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	clients := make([]*microsvc.PlaneClient, wireClients)
	for c := range clients {
		var tr microsvc.Transport = s.planeTransport()
		if c == 0 {
			tr = &faultyTransport{PlaneTransport: s.planeTransport(), fault: fault}
		}
		pc, err := microsvc.NewPlaneClientTransport(wireService, s.keys.Request, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		clients[c] = pc
	}
	return wireLoad(s.rs, clients)
}

// TestWireRejectsUnmatchedReply: a reply that answers no outstanding
// request fails the run instead of inflating plane_served.
func TestWireRejectsUnmatchedReply(t *testing.T) {
	det, err := wireLoadWithFault(t, "replay")
	if err == nil || !strings.Contains(err.Error(), "not outstanding") {
		t.Fatalf("replayed reply: err %v, counters %v", err, det)
	}
}

// TestWireCountsLost: a request that is never answered counts as lost, and
// every sent request is accounted for exactly once.
func TestWireCountsLost(t *testing.T) {
	det, err := wireLoadWithFault(t, "drop")
	if err != nil {
		t.Fatal(err)
	}
	if det["plane_lost"] != 1 {
		t.Fatalf("plane_lost %v, want 1", det["plane_lost"])
	}
	if det["plane_served"]+det["plane_shed"]+det["plane_lost"] != det["plane_sent"] {
		t.Fatalf("served %v + shed %v + lost %v != sent %v",
			det["plane_served"], det["plane_shed"], det["plane_lost"], det["plane_sent"])
	}
}
