package microsvc

import (
	"fmt"
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
