package tracenet

import (
	"sort"

	"locsvc/internal/msg"
)

// ClassStats are the per-op means of one op class over a traced pass. All
// times are microseconds.
type ClassStats struct {
	Ops int
	// OpUS is the client op's duration.
	OpUS float64
	// ClientSelfUS is the op minus the entry server's handler span: the
	// client library plus the two transport legs of the client's own call.
	ClientSelfUS float64
	// ServerSelfUS sums, over every server the op touched, the handler
	// span minus the nested calls it made (so it includes the in-process
	// store and index time).
	ServerSelfUS float64
	// Msgs counts envelopes: one per Send, two per Call or CallAsync.
	Msgs float64
	// FwdHops counts PosQueryFwd and PosQueryDirect deliveries.
	FwdHops float64
	// SlowestLeafUS is the longest RangeQueryFwd handler span of an op
	// that fanned out, averaged over those ops.
	SlowestLeafUS float64
	fanouts       int
	// EventSelfUS sums the self time of the servers' event handlers
	// (subscription routing and count aggregation).
	EventSelfUS float64
}

// Report is the outcome of Analyze.
type Report struct {
	Class map[uint8]*ClassStats
	// HopUS is the mean one-way transport time: handler start minus send
	// start for one-way messages, half of (call span minus the
	// destination's handler span) for calls.
	HopUS float64
	Hops  int
	// NodeSelfUS is every server's total handler self time.
	NodeSelfUS map[msg.NodeID]float64
	// Orphans counts spans whose op has no KindOp span (recorded between
	// ops, e.g. a janitor message).
	Orphans int
}

// Analyze groups spans by op and derives self times, hop times and message
// counts. isServer tells servers from clients.
func Analyze(spans []Span, isServer func(msg.NodeID) bool) Report {
	rep := Report{Class: make(map[uint8]*ClassStats), NodeSelfUS: make(map[msg.NodeID]float64)}
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Op != sorted[j].Op {
			return sorted[i].Op < sorted[j].Op
		}
		return sorted[i].Start < sorted[j].Start
	})
	var hopSum float64
	for lo := 0; lo < len(sorted); {
		hi := lo
		for hi < len(sorted) && sorted[hi].Op == sorted[lo].Op {
			hi++
		}
		rep.analyzeOp(sorted[lo:hi], isServer, &hopSum)
		lo = hi
	}
	for _, c := range rep.Class {
		n := float64(c.Ops)
		c.OpUS /= n
		c.ClientSelfUS /= n
		c.ServerSelfUS /= n
		c.Msgs /= n
		c.FwdHops /= n
		c.EventSelfUS /= n
		if c.fanouts > 0 {
			c.SlowestLeafUS /= float64(c.fanouts)
		}
	}
	if rep.Hops > 0 {
		rep.HopUS = hopSum / float64(rep.Hops)
	}
	return rep
}

// Prefix returns the spans of the first n client ops. A traced pass runs
// for a fixed time and so covers a varying number of ops; counts taken over
// a fixed prefix of the (deterministic) op sequence repeat exactly.
func Prefix(spans []Span, n int) []Span {
	first := uint32(0)
	for _, s := range spans {
		if s.Kind == KindOp && (first == 0 || s.Op < first) {
			first = s.Op
		}
	}
	var out []Span
	for _, s := range spans {
		if s.Op >= first && s.Op-first < uint32(n) {
			out = append(out, s)
		}
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (rep *Report) analyzeOp(group []Span, isServer func(msg.NodeID) bool, hopSum *float64) {
	var op *Span
	for i := range group {
		if group[i].Kind == KindOp {
			op = &group[i]
			break
		}
	}
	if op == nil {
		rep.Orphans += len(group)
		return
	}
	c := rep.Class[op.Class]
	if c == nil {
		c = &ClassStats{}
		rep.Class[op.Class] = c
	}
	c.Ops++
	opDur := op.End - op.Start
	c.OpUS += us(opDur)

	used := make([]bool, len(group))
	// match finds the unused handler span that received out's message.
	match := func(out *Span) *Span {
		for i := range group {
			h := &group[i]
			if !used[i] && h.Kind == KindHandler && h.Node == out.Peer && h.Peer == out.Node &&
				h.Tag == out.Tag && h.Start >= out.Start {
				used[i] = true
				return h
			}
		}
		return nil
	}
	var entry *Span
	slowest := int64(-1)
	for i := range group {
		s := &group[i]
		switch s.Kind {
		case KindSend:
			c.Msgs++
			if h := match(s); h != nil {
				*hopSum += us(h.Start - s.Start)
				rep.Hops++
			}
		case KindCall, KindAsync:
			c.Msgs += 2
			h := match(s)
			if h == nil {
				break
			}
			if s.Node == op.Node && entry == nil {
				entry = h
			}
			if s.Kind == KindCall {
				*hopSum += us((s.End-s.Start)-(h.End-h.Start)) / 2
			} else {
				*hopSum += us(h.Start - s.Start)
			}
			rep.Hops++
		case KindHandler:
			if !isServer(s.Node) {
				break
			}
			self := s.End - s.Start
			for j := range group {
				if n := &group[j]; n.Kind == KindCall && n.Node == s.Node && n.Start >= s.Start && n.End <= s.End {
					self -= n.End - n.Start
				}
			}
			if self < 0 {
				self = 0
			}
			c.ServerSelfUS += us(self)
			rep.NodeSelfUS[s.Node] += us(self)
			switch s.Tag {
			case msg.TagPosQueryFwd, msg.TagPosQueryDirect:
				c.FwdHops++
			case msg.TagRangeQueryFwd:
				if d := s.End - s.Start; d > slowest {
					slowest = d
				}
			case msg.TagEventSubscribe, msg.TagEventCount:
				c.EventSelfUS += us(self)
			}
		}
	}
	if slowest >= 0 {
		c.SlowestLeafUS += us(slowest)
		c.fanouts++
	}
	if entry != nil {
		c.ClientSelfUS += us(opDur - (entry.End - entry.Start))
	} else {
		c.ClientSelfUS += us(opDur)
	}
}
