package server

// Test support: a leak probe that only tests call. No binary links it;
// TestEveryFunctionReached exempts this file.

// PendingCalls returns the number of in-flight outbound calls this server's
// transport node is still awaiting replies for. TestChaosSoak asserts it
// drops to zero at quiesce — no stuck in-flight entries after faults — and
// TestNothingTimedWhileClockStands waits on it for a path's acknowledgement.
func (s *Server) PendingCalls() int { return s.node.PendingCalls() }
