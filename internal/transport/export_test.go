package transport

// LoopbackClusterWith starts a loopback cluster whose stores' configs
// customize may change, for the tests outside the package.
var LoopbackClusterWith = loopbackCluster
