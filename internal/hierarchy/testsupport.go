package hierarchy

// Test support: a deployment with one set of options for every server,
// which only tests start. No binary links it; TestEveryFunctionReached
// exempts this file.

import (
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// Deploy is DeployWith with no per-server hook: opts apply to every server.
// TestQueriesUnderMessageLoss, TestDegradedQueriesWithDarkLeaf,
// TestPosQueryDuringHandover and the server package's other deployment
// tests start their trees through it.
func Deploy(network transport.Network, spec Spec, opts server.Options) (*Deployment, error) {
	return DeployWith(network, spec, opts, nil)
}
