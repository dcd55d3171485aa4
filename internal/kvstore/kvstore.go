// Package kvstore is a deterministic key/value state machine used as the
// replicated application in the execution stage of the BFT experiments:
// identical operation sequences produce identical states and snapshots on
// every replica.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rubin/internal/auth"
)

// OpCode identifies a state-machine operation.
type OpCode uint8

// Operations.
const (
	OpPut OpCode = iota + 1
	OpGet
	OpDelete
	// OpScan reads the keys starting with a prefix: the op's key field
	// holds the prefix and its value field an optional decimal result
	// cap. Scans go through the ordered path like every other operation,
	// so they observe one consistent snapshot of the store.
	OpScan
)

// Store is the key/value state machine. It implements pbft.Application
// and pbft.PartitionedState: keys live in MerkleBuckets hash partitions
// (see merkle.go) so checkpoints and state transfer work per bucket.
type Store struct {
	// buckets holds the key/value data, partitioned by bucketOf. A nil
	// bucket map is an empty bucket; size is the total key count.
	buckets [MerkleBuckets]map[string]string
	size    int

	// 2PC participant state (see txn.go): staged transactions and the
	// write locks they hold. Both are part of the marshaled state, so
	// checkpoints and state transfer carry in-doubt transactions.
	prepared map[string]*preparedTxn
	locks    map[string]string

	applied uint64

	// Per-bucket encoding caches. bucketEnc[i] is the canonical
	// encoding of bucket i (nil marks the bucket dirty — a mutation
	// invalidates only its own bucket, never the others) and
	// bucketDig[i] its digest, valid whenever bucketEnc[i] is non-nil.
	// bucketMod[i] is the applied counter at the bucket's last
	// mutation, which is what CheckpointDelta answers from. Cached
	// slices are never mutated after creation and never aliased into
	// other caches: encodeBucket builds a fresh slice, MarshalState
	// copies bucket encodings into its own buffer, and setBucket copies
	// the incoming encoding. MarshalPartition hands them out shared.
	bucketEnc [MerkleBuckets][]byte
	bucketDig [MerkleBuckets]auth.Digest
	bucketMod [MerkleBuckets]uint64

	// preparedEnc caches the staged-2PC section encoding (nil = dirty).
	preparedEnc []byte

	// marshaled caches the full MarshalState concatenation. Any Execute
	// invalidates it (the applied counter is part of the encoding), but
	// rebuilding it only re-encodes dirty buckets.
	marshaled []byte
}

// New returns an empty store.
func New() *Store {
	return &Store{
		prepared: make(map[string]*preparedTxn),
		locks:    make(map[string]string),
	}
}

// Len returns the number of keys.
func (s *Store) Len() int { return s.size }

// Applied returns the number of operations executed.
func (s *Store) Applied() uint64 { return s.applied }

// Get reads a key directly (local, not ordered — for inspection).
func (s *Store) Get(key string) (string, bool) {
	v, ok := s.buckets[bucketOf(key)][key]
	return v, ok
}

// get reads a key from its bucket.
func (s *Store) get(key string) (string, bool) {
	v, ok := s.buckets[bucketOf(key)][key]
	return v, ok
}

// put writes a key and dirties its bucket.
func (s *Store) put(key, value string) {
	b := bucketOf(key)
	if s.buckets[b] == nil {
		s.buckets[b] = make(map[string]string)
	}
	if _, ok := s.buckets[b][key]; !ok {
		s.size++
	}
	s.buckets[b][key] = value
	s.touchBucket(b)
}

// del removes a key, dirtying its bucket; it reports whether the key
// existed.
func (s *Store) del(key string) bool {
	b := bucketOf(key)
	if _, ok := s.buckets[b][key]; !ok {
		return false
	}
	delete(s.buckets[b], key)
	s.size--
	s.touchBucket(b)
	return true
}

// touchBucket marks one bucket dirty at the current applied counter.
func (s *Store) touchBucket(b int) {
	s.bucketEnc[b] = nil
	s.bucketMod[b] = s.applied
	s.marshaled = nil
}

// touchPrepared marks the staged-2PC section dirty.
func (s *Store) touchPrepared() {
	s.preparedEnc = nil
	s.marshaled = nil
}

// forEach visits every key/value pair (bucket by bucket, map order
// within a bucket — callers needing determinism sort what they collect).
func (s *Store) forEach(fn func(k, v string)) {
	for i := range s.buckets {
		for k, v := range s.buckets[i] {
			fn(k, v)
		}
	}
}

// EncodeOp serializes an operation for submission through the agreement
// layer.
func EncodeOp(code OpCode, key, value string) []byte {
	buf := []byte{byte(code)}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, value...)
	return buf
}

// DecodeOp parses an operation.
func DecodeOp(op []byte) (code OpCode, key, value string, err error) {
	if len(op) < 9 {
		return 0, "", "", fmt.Errorf("kvstore: op too short (%d bytes)", len(op))
	}
	code = OpCode(op[0])
	kl := int(binary.BigEndian.Uint32(op[1:5]))
	if len(op) < 5+kl+4 {
		return 0, "", "", fmt.Errorf("kvstore: truncated key")
	}
	key = string(op[5 : 5+kl])
	vl := int(binary.BigEndian.Uint32(op[5+kl : 9+kl]))
	if len(op) != 9+kl+vl {
		return 0, "", "", fmt.Errorf("kvstore: truncated value")
	}
	value = string(op[9+kl : 9+kl+vl])
	return code, key, value, nil
}

// Execute applies one ordered operation (pbft.Application).
func (s *Store) Execute(op []byte) []byte {
	// The applied counter is part of the marshaled state, so the full
	// concatenation goes stale on every operation — but the per-bucket
	// encodings do not: only the mutated key's bucket is re-encoded at
	// the next checkpoint (a read dirties nothing).
	s.marshaled = nil
	s.applied++
	code, key, value, err := DecodeOp(op)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	switch code {
	case OpPut:
		if _, locked := s.locks[key]; locked {
			return []byte(Locked)
		}
		s.put(key, value)
		return []byte("OK")
	case OpGet:
		v, ok := s.get(key)
		if !ok {
			return []byte("NOTFOUND")
		}
		return []byte(v)
	case OpDelete:
		if _, locked := s.locks[key]; locked {
			return []byte(Locked)
		}
		if !s.del(key) {
			return []byte("NOTFOUND")
		}
		return []byte("OK")
	case OpTxn:
		return s.executeTxn(key, value)
	case OpPrepare:
		return s.executePrepare(key, value)
	case OpCommit:
		return s.executeCommit(key)
	case OpAbort:
		return s.executeAbort(key)
	case OpScanPart:
		return s.executeScanPart(key, value)
	case OpScan:
		limit := 0
		if value != "" {
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return []byte("ERR bad scan limit " + value)
			}
			limit = n
		}
		return []byte(s.Scan(key, limit))
	default:
		return []byte("ERR unknown op")
	}
}

// OpReadOnly reports whether an encoded operation is side-effect-free:
// executing it leaves the store byte-identical. Only such operations are
// eligible for the agreement-bypassing read fast path; malformed
// encodings are conservatively not read-only (the ordered path will
// surface the decode error).
func OpReadOnly(op []byte) bool {
	code, _, _, err := DecodeOp(op)
	if err != nil {
		return false
	}
	switch code {
	case OpGet, OpScan, OpScanPart:
		return true
	default:
		return false
	}
}

// ExecuteReadOnly evaluates a side-effect-free operation against the
// current state without mutating anything — unlike Execute it leaves the
// applied counter and the marshaled-state cache untouched, so tentative
// reads served at different times on different replicas cannot diverge
// their checkpoint digests. Results are byte-identical to what Execute
// would return for the same operation and state (pbft.TentativeReader).
func (s *Store) ExecuteReadOnly(op []byte) []byte {
	code, key, value, err := DecodeOp(op)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	switch code {
	case OpGet:
		v, ok := s.get(key)
		if !ok {
			return []byte("NOTFOUND")
		}
		return []byte(v)
	case OpScan:
		limit := 0
		if value != "" {
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return []byte("ERR bad scan limit " + value)
			}
			limit = n
		}
		return []byte(s.Scan(key, limit))
	case OpScanPart:
		return s.executeScanPart(key, value)
	default:
		return []byte("ERR not read-only")
	}
}

// Scan returns up to limit key=value pairs whose keys start with prefix,
// in sorted key order, joined by newlines (limit <= 0 means no cap). An
// empty result is the empty string.
func (s *Store) Scan(prefix string, limit int) string {
	var keys []string
	s.forEach(func(k, _ string) {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	})
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(k)
		b.WriteByte('=')
		v, _ := s.get(k)
		b.WriteString(v)
	}
	return b.String()
}

// preparedBytes returns the staged-2PC section encoding, re-encoding
// only if a transaction was staged or released since the last call. The
// returned slice is a cache: read-only for callers.
func (s *Store) preparedBytes() []byte {
	if s.preparedEnc == nil {
		s.preparedEnc = s.encodePrepared()
	}
	return s.preparedEnc
}

// encodePrepared serializes the staged-transaction section in sorted
// transaction-id order: the count, then per transaction the id and its
// sub-operations in sub order (code byte, key, value). Locks are not
// serialized — they are exactly the staged key sets (reads lock too)
// and are rebuilt on unmarshal.
func (s *Store) encodePrepared() []byte {
	ids := s.Prepared()
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(id)))
		buf = append(buf, id...)
		subs := s.prepared[id].subs
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
		for _, sub := range subs {
			buf = append(buf, byte(sub.Code))
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(sub.Key)))
			buf = append(buf, sub.Key...)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(sub.Value)))
			buf = append(buf, sub.Value...)
		}
	}
	return buf
}

// MarshalState serializes the full store for PBFT state transfer
// (pbft.StateTransferable): the applied-operation counter, a partition
// count followed by every bucket's canonical encoding in bucket order,
// and the staged 2PC transactions — a replica recovering mid-transaction
// must learn the in-doubt set, or a later COMMIT would find nothing to
// apply. Rebuilding re-encodes only buckets dirtied since the last
// call; the result is cached until the next operation and must be
// treated as read-only. The buffer is always a fresh allocation (never
// one of the per-bucket caches), so retaining it across later mutations
// is safe.
func (s *Store) MarshalState() []byte {
	if s.marshaled == nil {
		size := 8 + 4 + len(s.preparedBytes())
		for i := range s.buckets {
			size += len(s.bucketBytes(i))
		}
		buf := binary.BigEndian.AppendUint64(make([]byte, 0, size), s.applied)
		buf = binary.BigEndian.AppendUint32(buf, MerkleBuckets)
		for i := range s.buckets {
			buf = append(buf, s.bucketBytes(i)...)
		}
		s.marshaled = append(buf, s.preparedBytes()...)
	}
	return s.marshaled
}

// Snapshot digests the state deterministically (pbft.Application) as the
// Merkle root over the bucket digests combined with the applied counter
// and the staged-2PC section: Hash(applied || merkleRoot(buckets) ||
// Hash(prepared)). Keys are hashed in sorted order within their bucket,
// so replicas with equal contents produce equal digests regardless of
// map iteration order, and the digest covers every byte a transfer
// ships. Unlike a flat digest of MarshalState, recomputation after K
// mutated buckets costs O(K + interior nodes), not O(state) — this is
// what makes frequent checkpoints affordable at large state sizes.
func (s *Store) Snapshot() auth.Digest {
	digests := make([]auth.Digest, MerkleBuckets)
	for i := range digests {
		s.bucketBytes(i)
		digests[i] = s.bucketDig[i]
	}
	return composeRoot(s.applied, merkleRoot(digests), auth.Hash(s.preparedBytes()))
}

// UnmarshalState replaces the store's contents — key/value data and
// staged 2PC transactions — with a marshaled state. Keys are re-homed
// into their owning buckets regardless of which partition section they
// arrived in, so any decodable input re-marshals canonically.
func (s *Store) UnmarshalState(state []byte) error {
	if len(state) < 8 {
		return fmt.Errorf("kvstore: state too short (%d bytes)", len(state))
	}
	applied := binary.BigEndian.Uint64(state)
	rest := state[8:]

	nbuckets, rest, err := takeCount(rest, "partition count")
	if err != nil {
		return err
	}
	if nbuckets != MerkleBuckets {
		return fmt.Errorf("kvstore: state has %d partitions (want %d)", nbuckets, MerkleBuckets)
	}
	var buckets [MerkleBuckets]map[string]string
	size := 0
	for b := uint32(0); b < nbuckets; b++ {
		var npairs uint32
		if npairs, rest, err = takeCount(rest, "pair count"); err != nil {
			return err
		}
		for i := uint32(0); i < npairs; i++ {
			var k, v string
			if k, rest, err = takeString(rest); err != nil {
				return fmt.Errorf("kvstore: state key: %w", err)
			}
			if v, rest, err = takeString(rest); err != nil {
				return fmt.Errorf("kvstore: state value: %w", err)
			}
			home := bucketOf(k)
			if buckets[home] == nil {
				buckets[home] = make(map[string]string)
			}
			if _, dup := buckets[home][k]; !dup {
				size++
			}
			buckets[home][k] = v
		}
	}

	prepared, locks, err := decodePrepared(rest)
	if err != nil {
		return err
	}
	s.buckets = buckets
	s.size = size
	s.prepared = prepared
	s.locks = locks
	s.applied = applied
	for i := range s.bucketEnc {
		s.bucketEnc[i] = nil
		s.bucketMod[i] = applied
	}
	s.preparedEnc = nil
	s.marshaled = nil
	return nil
}

// takeCount pops one uint32 count off a buffer.
func takeCount(raw []byte, what string) (uint32, []byte, error) {
	if len(raw) < 4 {
		return 0, nil, fmt.Errorf("kvstore: truncated %s", what)
	}
	return binary.BigEndian.Uint32(raw), raw[4:], nil
}
