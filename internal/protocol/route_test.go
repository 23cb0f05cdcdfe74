package protocol_test

import (
	"testing"

	"crdtsync/internal/protocol"
)

// TestShardOfGolden pins key routing, which is part of the wire contract:
// a frame's keyed items carry no shard index, so a receiver finds each
// one's shard by hashing its key as the sender's Update did. Bench-shaped
// keys — preloaded and fresh counters, sets and map fields, a probe, and
// the empty key — at 8 and 64 shards, and their hash-tree leaves, which
// Merkle drills compare across replicas.
func TestShardOfGolden(t *testing.T) {
	for _, c := range []struct {
		key       string
		at8, at64 uint32
		leaf      uint32
	}{
		{"c/k0000042", 6, 62, 2091},
		{"s/k0000043", 1, 1, 3192},
		{"m/k000012/f04", 0, 0, 1440},
		{"c/n00001201", 7, 55, 1162},
		{"s/n00001202", 2, 58, 3561},
		{"m/n000024/f04", 6, 46, 2492},
		{"p/07", 5, 37, 3902},
		{"", 5, 5, 2065},
	} {
		if got := protocol.ShardOf(c.key, 8); got != c.at8 {
			t.Errorf("%q at 8 shards: shard %d, want %d", c.key, got, c.at8)
		}
		if got := protocol.ShardOf(c.key, 64); got != c.at64 {
			t.Errorf("%q at 64 shards: shard %d, want %d", c.key, got, c.at64)
		}
		if got := protocol.ShardOf([]byte(c.key), 64); got != c.at64 {
			t.Errorf("%q as bytes at 64 shards: shard %d, want %d", c.key, got, c.at64)
		}
		if got := protocol.TreeLeafOf(c.key); got != c.leaf {
			t.Errorf("%q: leaf %d, want %d", c.key, got, c.leaf)
		}
	}
}
