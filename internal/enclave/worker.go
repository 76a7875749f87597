package enclave

import "securecloud/internal/cryptbox"

// NewWorker builds the shard-per-core deployment unit shard.Set assembles
// the concurrent layers (scbr.ShardedIndex, kvstore.ShardedStore, the
// parallel map/reduce engine) from: a fresh simulated platform from cfg hosting
// one initialized enclave of the given size, measured over name, with its
// heap arena ready for allocation. Because every worker owns a whole
// platform, workers share no simulated state — LLC, EPC and ledgers are
// private — so parallel execution across workers charges exactly the same
// totals as sequential execution, which is what keeps the sharded layers'
// figures deterministic.
func NewWorker(cfg Config, size uint64, name string) (*Enclave, *Arena, error) {
	return NewSignedWorker(cfg, size, name, cryptbox.Sum([]byte(name)))
}

// NewSignedWorker is NewWorker with a caller-chosen MRSIGNER. Layers whose
// key-release policies select on the signer identity use it so every
// worker of one logical service shares a signer — the application plane's
// replica fleets attest this way: one MRSIGNER per service, however many
// replicas are launched or restarted over the service's lifetime.
func NewSignedWorker(cfg Config, size uint64, name string, signer cryptbox.Digest) (*Enclave, *Arena, error) {
	p := NewPlatform(cfg)
	enc, err := p.ECreate(size, signer)
	if err != nil {
		return nil, nil, err
	}
	if _, err := enc.EAdd([]byte(name)); err != nil {
		return nil, nil, err
	}
	if err := enc.EInit(); err != nil {
		return nil, nil, err
	}
	arena, err := enc.HeapArena()
	if err != nil {
		return nil, nil, err
	}
	return enc, arena, nil
}
