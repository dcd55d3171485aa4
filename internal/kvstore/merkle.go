package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rubin/internal/auth"
)

// The keyspace is partitioned into a fixed-arity Merkle tree over
// PartitionKey hash buckets (the PBFT hierarchical state partition,
// Castro & Liskov §6.3). Each bucket owns the keys PartitionKey assigns
// to it and carries a cached canonical encoding plus its digest; a
// mutation dirties only its own bucket, so a checkpoint re-encodes and
// re-hashes O(dirty buckets) instead of the whole store, and a lagging
// replica fetches only the buckets whose digests diverge from a
// quorum-certified root.
const (
	// MerkleBuckets is the number of leaf partitions. It is part of the
	// state encoding and the digest definition: all replicas must agree
	// on it, so it is a constant, not a Config knob.
	MerkleBuckets = 256

	// MerkleArity is the fan-in of interior tree nodes: 256 leaves hash
	// into 16 interior digests which hash into the tree root.
	MerkleArity = 16
)

// bucketOf returns the Merkle leaf bucket owning a key.
func bucketOf(key string) int { return PartitionKey(key, MerkleBuckets) }

// PartitionCount returns the number of Merkle leaf partitions
// (pbft.PartitionedState).
func (s *Store) PartitionCount() int { return MerkleBuckets }

// PartitionDigests returns the current leaf digests, bucket 0 first
// (pbft.PartitionedState). Dirty buckets are re-encoded first; the
// returned slice is a fresh copy the caller may retain.
func (s *Store) PartitionDigests() []auth.Digest {
	out := make([]auth.Digest, MerkleBuckets)
	for i := range out {
		s.bucketBytes(i)
		out[i] = s.bucketDig[i]
	}
	return out
}

// CheckpointDelta returns the buckets mutated by any operation applied
// after the store's applied counter read since — the partitions a
// checkpoint taken now must re-serialize relative to a checkpoint taken
// at since (pbft.PartitionedState). Indices ascend.
func (s *Store) CheckpointDelta(since uint64) []int {
	var dirty []int
	for i := range s.bucketMod {
		if s.bucketMod[i] > since {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// MarshalPartition serializes one bucket in canonical form — pair count,
// then the pairs in sorted key order (pbft.PartitionedState); auth.Hash
// of it equals the bucket's leaf digest. The result is the bucket's cached
// encoding, shared rather than copied: cached encodings are never written
// after creation (a mutation replaces the slot), so it stays valid for as
// long as the caller retains it. Callers must not modify it.
func (s *Store) MarshalPartition(part int) []byte {
	if part < 0 || part >= MerkleBuckets {
		return nil
	}
	return s.bucketBytes(part)
}

// MarshalHeader serializes the non-partitioned remainder of the state:
// the applied-operation counter and the staged 2PC transaction section
// (pbft.PartitionedState). Together with the leaf digests it determines
// the root: ComposeRoot(MarshalHeader(), PartitionDigests()) ==
// Snapshot().
func (s *Store) MarshalHeader() []byte {
	buf := binary.BigEndian.AppendUint64(nil, s.applied)
	return append(buf, s.preparedBytes()...)
}

// ComposeRoot recomputes the root digest a store with the given header
// and leaf digests would report from Snapshot (pbft.PartitionedState).
// It is stateless: a fetcher uses it to check a transfer manifest for
// self-consistency before requesting any partition, and to verify the
// assembled state against the quorum-certified root. A malformed header
// or digest count yields the zero digest, which no honest replica ever
// certifies (roots are hash outputs).
func (s *Store) ComposeRoot(header []byte, digests []auth.Digest) auth.Digest {
	if len(header) < 8 || len(digests) != MerkleBuckets {
		return auth.Digest{}
	}
	applied := binary.BigEndian.Uint64(header)
	return composeRoot(applied, merkleRoot(digests), auth.Hash(header[8:]))
}

// composeRoot combines the three state components into the root digest:
// Hash(applied || tree root || prepared-section digest).
func composeRoot(applied uint64, tree auth.Digest, prepared auth.Digest) auth.Digest {
	buf := make([]byte, 0, 8+2*auth.DigestSize)
	buf = binary.BigEndian.AppendUint64(buf, applied)
	buf = append(buf, tree[:]...)
	buf = append(buf, prepared[:]...)
	return auth.Hash(buf)
}

// merkleRoot folds leaf digests up the fixed-arity tree: each interior
// node hashes the concatenation of its (up to MerkleArity) children.
func merkleRoot(level []auth.Digest) auth.Digest {
	if len(level) == 0 {
		return auth.Hash(nil)
	}
	for len(level) > 1 {
		next := make([]auth.Digest, 0, (len(level)+MerkleArity-1)/MerkleArity)
		for i := 0; i < len(level); i += MerkleArity {
			end := min(i+MerkleArity, len(level))
			buf := make([]byte, 0, (end-i)*auth.DigestSize)
			for _, d := range level[i:end] {
				buf = append(buf, d[:]...)
			}
			next = append(next, auth.Hash(buf))
		}
		level = next
	}
	return level[0]
}

// ApplyPartition replaces one bucket's contents with a serialized
// partition (pbft.PartitionedState). The encoding must be canonical —
// strictly ascending keys that all belong to the bucket — so that
// re-marshaling reproduces the input byte for byte and the bucket digest
// equals auth.Hash of it. The store is unchanged on error.
func (s *Store) ApplyPartition(part int, data []byte) error {
	if part < 0 || part >= MerkleBuckets {
		return fmt.Errorf("kvstore: partition %d out of range", part)
	}
	m, err := decodeBucket(part, data)
	if err != nil {
		return err
	}
	s.setBucket(part, m, data)
	return nil
}

// setBucket installs a decoded bucket map plus its already-canonical
// encoding, refreshing size and caches. The encoding is copied so the
// cache cannot alias a caller-retained buffer, which MarshalPartition
// would then hand out as the store's own.
func (s *Store) setBucket(part int, m map[string]string, enc []byte) {
	s.size += len(m) - len(s.buckets[part])
	s.buckets[part] = m
	cp := make([]byte, len(enc))
	copy(cp, enc)
	s.bucketEnc[part] = cp
	s.bucketDig[part] = auth.Hash(cp)
	s.bucketMod[part] = s.applied
	s.marshaled = nil
}

// decodeBucket parses one bucket encoding, enforcing canonical form:
// strictly ascending keys, every key owned by the bucket, no trailing
// bytes.
func decodeBucket(part int, data []byte) (map[string]string, error) {
	npairs, rest, err := takeCount(data, "partition pair count")
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, min(int(npairs), 1<<16))
	prev := ""
	for i := uint32(0); i < npairs; i++ {
		var k, v string
		if k, rest, err = takeString(rest); err != nil {
			return nil, fmt.Errorf("kvstore: partition key: %w", err)
		}
		if v, rest, err = takeString(rest); err != nil {
			return nil, fmt.Errorf("kvstore: partition value: %w", err)
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("kvstore: partition keys not strictly sorted (%q after %q)", k, prev)
		}
		if bucketOf(k) != part {
			return nil, fmt.Errorf("kvstore: key %q does not belong to partition %d", k, part)
		}
		prev = k
		m[k] = v
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("kvstore: %d trailing partition bytes", len(rest))
	}
	return m, nil
}

// ApplyTransfer atomically replaces the whole store from a transfer
// header plus one serialized partition per bucket
// (pbft.PartitionedState). Everything is validated before anything is
// installed: on error the store is unchanged.
func (s *Store) ApplyTransfer(header []byte, parts [][]byte) error {
	if len(parts) != MerkleBuckets {
		return fmt.Errorf("kvstore: transfer has %d partitions (want %d)", len(parts), MerkleBuckets)
	}
	if len(header) < 8 {
		return fmt.Errorf("kvstore: transfer header too short (%d bytes)", len(header))
	}
	applied := binary.BigEndian.Uint64(header)
	prepared, locks, err := decodePrepared(header[8:])
	if err != nil {
		return err
	}
	maps := make([]map[string]string, MerkleBuckets)
	for i, p := range parts {
		if maps[i], err = decodeBucket(i, p); err != nil {
			return fmt.Errorf("kvstore: transfer partition %d: %w", i, err)
		}
	}
	s.applied = applied
	for i := range maps {
		s.setBucket(i, maps[i], parts[i])
		s.bucketMod[i] = applied
	}
	s.prepared = prepared
	s.locks = locks
	s.preparedEnc = nil
	s.marshaled = nil
	return nil
}

// decodePrepared parses the staged-2PC section (the byte layout of
// encodePrepared) and rebuilds the lock table from the staged key sets.
// It rejects trailing bytes.
func decodePrepared(raw []byte) (map[string]*preparedTxn, map[string]string, error) {
	ntxns, rest, err := takeCount(raw, "txn count")
	if err != nil {
		return nil, nil, err
	}
	prepared := make(map[string]*preparedTxn)
	locks := make(map[string]string)
	for i := uint32(0); i < ntxns; i++ {
		var id string
		if id, rest, err = takeString(rest); err != nil {
			return nil, nil, fmt.Errorf("kvstore: staged txn id: %w", err)
		}
		if _, dup := prepared[id]; dup {
			return nil, nil, fmt.Errorf("kvstore: duplicate staged txn %q", id)
		}
		var nsubs uint32
		if nsubs, rest, err = takeCount(rest, "staged sub count"); err != nil {
			return nil, nil, err
		}
		staged := &preparedTxn{}
		for j := uint32(0); j < nsubs; j++ {
			if len(rest) < 1 {
				return nil, nil, fmt.Errorf("kvstore: truncated staged sub code")
			}
			code := OpCode(rest[0])
			rest = rest[1:]
			if code != OpGet && code != OpPut {
				return nil, nil, fmt.Errorf("kvstore: staged sub op %d (only get/put allowed)", code)
			}
			var k, v string
			if k, rest, err = takeString(rest); err != nil {
				return nil, nil, fmt.Errorf("kvstore: staged sub key: %w", err)
			}
			if v, rest, err = takeString(rest); err != nil {
				return nil, nil, fmt.Errorf("kvstore: staged sub value: %w", err)
			}
			if holder, locked := locks[k]; locked && holder != id {
				return nil, nil, fmt.Errorf("kvstore: staged txns %q and %q both lock %q", holder, id, k)
			}
			staged.subs = append(staged.subs, TxnSub{Code: code, Key: k, Value: v})
			locks[k] = id
		}
		prepared[id] = staged
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("kvstore: %d trailing state bytes", len(rest))
	}
	return prepared, locks, nil
}

// bucketBytes returns the canonical encoding of one bucket, re-encoding
// it only if a mutation dirtied it since the last encoding. The returned
// slice is the cache itself: callers must treat it as read-only (use
// MarshalPartition for a retainable copy).
func (s *Store) bucketBytes(i int) []byte {
	if s.bucketEnc[i] == nil {
		s.bucketEnc[i] = encodeBucket(s.buckets[i])
		s.bucketDig[i] = auth.Hash(s.bucketEnc[i])
	}
	return s.bucketEnc[i]
}

// encodeBucket serializes one bucket map in canonical form.
func encodeBucket(m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	size := 4
	for k, v := range m {
		keys = append(keys, k)
		size += 4 + len(k) + 4 + len(v)
	}
	sort.Strings(keys)
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(keys)))
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		v := m[k]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}
