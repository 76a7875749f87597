package microsvc

import (
	"fmt"
	"runtime"
	"testing"
)

// roundTripPlane boots a two-replica set on an in-process bus behind an
// echo handler shaped like a real one (it builds a fresh reply) and a
// client on the same bus.
func roundTripPlane(tb testing.TB) (*ReplicaSet, *PlaneClient) {
	tb.Helper()
	bus, svc, kb, keys := planeFixture(tb, "plane/rt", "rt/req", "rt/resp")
	rs, err := NewReplicaSet(bus, svc, kb, "plane/rt",
		func(req []byte) ([]byte, error) { return append([]byte("ok:"), req...), nil },
		ReplicaSetConfig{Replicas: 2, InTopic: "rt/req", OutTopic: "rt/resp"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rs.Stop)
	client, err := NewPlaneClient(bus, "plane/rt", keys, "rt/req", "rt/resp")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	return rs, client
}

// roundTrip sends reqs, runs one Step and polls every reply, checking each
// reply's body against its request.
func roundTrip(tb testing.TB, rs *ReplicaSet, client *PlaneClient, reqs []PlaneRequest) {
	ids, err := client.SendTenantIDs("", reqs)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		tb.Fatal(err)
	}
	replies, err := client.Poll(0)
	if err != nil {
		tb.Fatal(err)
	}
	if len(replies) != len(reqs) {
		tb.Fatalf("%d replies to %d requests", len(replies), len(reqs))
	}
	want := make(map[uint64]int, len(ids))
	for i, id := range ids {
		want[id] = len(reqs[i].Body) + len("ok:")
	}
	for _, r := range replies {
		if n, ok := want[r.ID]; !ok || len(r.Body) != n || string(r.Body[:3]) != "ok:" {
			tb.Fatalf("reply %d: %d bytes, want %d", r.ID, len(r.Body), n)
		}
	}
}

// roundTripRequests builds n requests with bodies cycling from 8 to 32 KiB.
func roundTripRequests(n int) ([]PlaneRequest, int) {
	reqs := make([]PlaneRequest, n)
	total := 0
	for i := range reqs {
		size := (8 + 4*(i%7)) << 10
		body := make([]byte, size)
		for j := range body {
			body[j] = byte(i + j)
		}
		reqs[i] = PlaneRequest{Key: fmt.Sprintf("meter-%02d", i), Body: body}
		total += size
	}
	return reqs, total
}

// TestPlaneRoundTripAllocationCeiling bounds the host bytes one Send, Step
// and Poll of eight 16 KiB requests allocates. What must be allocated per
// body is the client's request frame, the two bus seals and the handler's
// reply: four copies. The ceiling of five leaves room for pooled reply
// frames missing the pool; opening a drained buffer into a fresh one
// instead of in place, anywhere on the path, adds a copy per hop.
func TestPlaneRoundTripAllocationCeiling(t *testing.T) {
	rs, client := roundTripPlane(t)
	reqs := make([]PlaneRequest, 8)
	bodyBytes := 0
	for i := range reqs {
		reqs[i] = PlaneRequest{Key: fmt.Sprintf("meter-%02d", i), Body: make([]byte, 16<<10)}
		bodyBytes += 16 << 10
	}
	roundTrip(t, rs, client, reqs) // warm up: first-touch state, pooled frames
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip(t, rs, client, reqs)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	ratio := perRound / float64(bodyBytes)
	t.Logf("one round trip of 8 x 16 KiB allocates %.0f B, %.2f x the body bytes", perRound, ratio)
	if ratio > 5 {
		t.Fatalf("one round trip allocates %.2f x the body bytes, ceiling 5", ratio)
	}
}

// BenchmarkPlaneRoundTrip times one batch of eight 8-32 KiB requests
// through a two-replica set on the in-process bus: client seal and
// publish, one Step, poll and open. Run with -benchmem for the per-batch
// host allocation.
func BenchmarkPlaneRoundTrip(b *testing.B) {
	rs, client := roundTripPlane(b)
	reqs, total := roundTripRequests(8)
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, rs, client, reqs)
	}
}
