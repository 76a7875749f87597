package transfer

import "securecloud/internal/cryptbox"

// MerkleRoot folds leaf digests into a binary Merkle root. Interior nodes
// hash a domain-separation prefix plus both children, so leaves cannot be
// confused with interior nodes (second-preimage hardening). An odd node at
// any level is promoted unchanged.
func MerkleRoot(leaves []cryptbox.Digest) cryptbox.Digest {
	if len(leaves) == 0 {
		return cryptbox.Sum([]byte("merkle-empty"))
	}
	level := append([]cryptbox.Digest(nil), leaves...)
	for len(level) > 1 {
		var next []cryptbox.Digest
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, hashPair(level[i], level[i+1]))
		}
		level = next
	}
	return level[0]
}

func hashPair(a, b cryptbox.Digest) cryptbox.Digest {
	buf := make([]byte, 0, 1+2*len(a))
	buf = append(buf, 0x01) // interior-node domain separator
	buf = append(buf, a[:]...)
	buf = append(buf, b[:]...)
	return cryptbox.Sum(buf)
}
