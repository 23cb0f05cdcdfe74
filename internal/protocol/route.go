package protocol

// Key routing. A key's shard and its leaf in that shard's hash tree are
// both read from one 32-bit FNV-1a hash of the key: the shard from its
// bottom bits, the leaf from its top bits, so that the two partitions stay
// independent. A data frame's keyed items carry no shard index (wire
// version 5): the receiver routes each by its key, as a local write is
// routed, so this hash is part of the wire contract and both ends of a
// connection run it over the shard count their hellos agreed on.

// keyHash32 is an allocation-free FNV-1a over a key (hash/fnv's hasher
// escapes through the interface and would allocate on every call).
func keyHash32[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// ShardOf returns the shard key routes to among shards, a power of two.
func ShardOf[K string | []byte](key K, shards int) uint32 {
	return keyHash32(key) & uint32(shards-1)
}

// TreeLeafOf returns the leaf of its shard's hash tree that key hashes
// into, one of TreeLeaves.
func TreeLeafOf(key string) uint32 {
	return keyHash32(key) >> (32 - TreeFanoutBits*TreeDepth)
}
