package spatial

import "locsvc/internal/core"

// ShardFor maps an object id onto one of n shards. The hash is FNV-1a
// (like the partition routing in internal/server) inlined over the string,
// so the per-operation shard pick allocates nothing.
func ShardFor(id core.OID, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(n))
}
