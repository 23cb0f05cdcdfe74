package transport

// LoopbackClusterWith starts a loopback cluster whose stores' configs
// customize may change, for the tests outside the package.
var LoopbackClusterWith = loopbackCluster

// Limited returns cfg with each peer's outbound queue bounded to
// queueFrames frames and queueBytes bytes, and data frames capped at
// maxFrame bytes (0 keeps a default): the bounds only tests lower.
func Limited(cfg StoreConfig, queueFrames, queueBytes, maxFrame int) StoreConfig {
	cfg.queue = queueConfig{frames: queueFrames, bytes: queueBytes}
	cfg.maxFrame = maxFrame
	return cfg
}

// UnsampledWait is the ticks an entry waits for its acknowledgement on a
// link that has measured no round trip yet.
const UnsampledWait = unsampledWait
