package kvstore

import (
	"fmt"
	"testing"
)

// BucketEncodeAllocsPerOp reports the allocations of encoding one Merkle
// bucket holding keys pairs with 1 KB values, the per-dirty-bucket cost
// of a checkpoint (experiment ALLOC): the sorted key list and the
// encoding, each sized up front.
func BucketEncodeAllocsPerOp(runs, keys int) float64 {
	m := make(map[string]string, keys)
	value := string(make([]byte, 1<<10))
	for i := 0; i < keys; i++ {
		m[fmt.Sprintf("key-%06d", i)] = value
	}
	return testing.AllocsPerRun(runs, func() { _ = encodeBucket(m) })
}
