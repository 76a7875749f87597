// Package microsvc implements SecureCloud's dependable micro-service
// framework (paper §III-B(2)): the application logic of each micro-service
// runs inside an enclave; the micro-service runtime outside the enclave
// only ever handles encrypted data. Requests, responses and bus traffic
// cross the boundary as sealed blobs, with the encryption and decryption
// performed "automatically and transparently within the enclave"
// (paper §IV).
//
// Micro-services compose into applications over the event bus: a
// ReplicaSet subscribes to its input topic, processes each sealed request
// inside the enclave of the replica that owns its routing key, and
// publishes sealed replies to its output topic.
package microsvc

import "errors"

// Handler is the application logic living inside the enclave. It sees
// plaintext; nothing outside the replica's enclave ever does.
type Handler func(req []byte) ([]byte, error)

// ErrSealedRequest reports a sealed plane body that failed authentication.
var ErrSealedRequest = errors.New("microsvc: request failed authentication")

// Stats is a monitoring snapshot of one replica. All fields are read from
// atomics: sampling never blocks the serve path.
type Stats struct {
	// Served counts successfully handled requests; Failed counts requests
	// that failed authentication, whose handler returned an error, or
	// whose response could not be sealed.
	Served uint64
	Failed uint64
}
