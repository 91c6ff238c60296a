package msg

// Tag is the one-byte wire identifier of a concrete Message type. Tags are
// part of the binary wire format (package locsvc/internal/wire): a tag
// value, once assigned, is frozen forever. New message types take the next
// free value; removed types retire their value without reuse. Keeping the
// registry here — next to the type definitions — makes "add a message"
// a one-file change before the codec even compiles.
type Tag uint8

// The tag registry. Values are wire-frozen; do not renumber.
const (
	// TagInvalid is the zero Tag; it never appears on the wire.
	TagInvalid Tag = 0

	TagRegisterReq      Tag = 1
	TagRegisterRes      Tag = 2
	TagRegisterFailed   Tag = 3
	TagCreatePath       Tag = 4 // retired, see below
	TagRemovePath       Tag = 5 // retired, see below
	TagUpdateReq        Tag = 6
	TagUpdateRes        Tag = 7
	TagHandoverReq      Tag = 8
	TagHandoverRes      Tag = 9
	TagDeregisterReq    Tag = 10
	TagDeregisterRes    Tag = 11
	TagChangeAccReq     Tag = 12
	TagChangeAccRes     Tag = 13
	TagNotifyAvailAcc   Tag = 14
	TagRequestUpdate    Tag = 15
	TagPosQueryReq      Tag = 16
	TagPosQueryDirect   Tag = 17
	TagPosQueryRes      Tag = 18
	TagPosQueryFwd      Tag = 19
	TagRangeQueryReq    Tag = 20
	TagRangeQueryFwd    Tag = 21
	TagRangeQuerySubRes Tag = 22
	TagRangeQueryRes    Tag = 23
	TagNeighborQueryReq Tag = 24
	TagNeighborQueryRes Tag = 25
	TagEventSubscribe   Tag = 26
	TagEventUnsubscribe Tag = 27
	TagEventCount       Tag = 28
	TagEventNotify      Tag = 29
	TagDiagReq          Tag = 30
	TagDiagRes          Tag = 31
	TagAck              Tag = 32
	TagErrorRes         Tag = 33
	TagReplAppend       Tag = 34
	TagReplAck          Tag = 35
	TagRunFetch         Tag = 36
	TagRunFetchRes      Tag = 37
	TagPromote          Tag = 38
	TagPromoteRes       Tag = 39
	TagPathBatch        Tag = 40

	// TagCreatePath and TagRemovePath are retired since wire v6, when
	// every path message began to travel in a PathBatch: no envelope
	// carries them, and they are not in the registry. The names stay only
	// because the benchmark module's trace tests still use them.

	// tagEnd is one past the highest assigned tag.
	tagEnd Tag = 41
)

// tagNames indexes message type names by tag, for diagnostics (oversize
// datagram errors, decode failures, stats).
var tagNames = [tagEnd]string{
	TagRegisterReq:      "RegisterReq",
	TagRegisterRes:      "RegisterRes",
	TagRegisterFailed:   "RegisterFailed",
	TagUpdateReq:        "UpdateReq",
	TagUpdateRes:        "UpdateRes",
	TagHandoverReq:      "HandoverReq",
	TagHandoverRes:      "HandoverRes",
	TagDeregisterReq:    "DeregisterReq",
	TagDeregisterRes:    "DeregisterRes",
	TagChangeAccReq:     "ChangeAccReq",
	TagChangeAccRes:     "ChangeAccRes",
	TagNotifyAvailAcc:   "NotifyAvailAcc",
	TagRequestUpdate:    "RequestUpdate",
	TagPosQueryReq:      "PosQueryReq",
	TagPosQueryDirect:   "PosQueryDirect",
	TagPosQueryRes:      "PosQueryRes",
	TagPosQueryFwd:      "PosQueryFwd",
	TagRangeQueryReq:    "RangeQueryReq",
	TagRangeQueryFwd:    "RangeQueryFwd",
	TagRangeQuerySubRes: "RangeQuerySubRes",
	TagRangeQueryRes:    "RangeQueryRes",
	TagNeighborQueryReq: "NeighborQueryReq",
	TagNeighborQueryRes: "NeighborQueryRes",
	TagEventSubscribe:   "EventSubscribe",
	TagEventUnsubscribe: "EventUnsubscribe",
	TagEventCount:       "EventCount",
	TagEventNotify:      "EventNotify",
	TagDiagReq:          "DiagReq",
	TagDiagRes:          "DiagRes",
	TagAck:              "Ack",
	TagErrorRes:         "ErrorRes",
	TagReplAppend:       "ReplAppend",
	TagReplAck:          "ReplAck",
	TagRunFetch:         "RunFetch",
	TagRunFetchRes:      "RunFetchRes",
	TagPromote:          "Promote",
	TagPromoteRes:       "PromoteRes",
	TagPathBatch:        "PathBatch",
}

// String returns the message type name the tag identifies.
func (t Tag) String() string {
	if t < tagEnd && tagNames[t] != "" {
		return tagNames[t]
	}
	return "Tag(" + itoa(uint8(t)) + ")"
}

// itoa formats a uint8 without pulling strconv into the hot-path package
// surface (String is diagnostics-only; this keeps it allocation-trivial).
func itoa(v uint8) string {
	if v == 0 {
		return "0"
	}
	var b [3]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = '0' + v%10
		v /= 10
	}
	return string(b[i:])
}

// TagOf returns the wire tag of a concrete message. The second return is
// false for nil or unregistered payloads (which cannot be encoded).
func TagOf(m Message) (Tag, bool) {
	switch m.(type) {
	case RegisterReq:
		return TagRegisterReq, true
	case RegisterRes:
		return TagRegisterRes, true
	case RegisterFailed:
		return TagRegisterFailed, true
	case UpdateReq:
		return TagUpdateReq, true
	case UpdateRes:
		return TagUpdateRes, true
	case HandoverReq:
		return TagHandoverReq, true
	case HandoverRes:
		return TagHandoverRes, true
	case DeregisterReq:
		return TagDeregisterReq, true
	case DeregisterRes:
		return TagDeregisterRes, true
	case ChangeAccReq:
		return TagChangeAccReq, true
	case ChangeAccRes:
		return TagChangeAccRes, true
	case NotifyAvailAcc:
		return TagNotifyAvailAcc, true
	case RequestUpdate:
		return TagRequestUpdate, true
	case PosQueryReq:
		return TagPosQueryReq, true
	case PosQueryDirect:
		return TagPosQueryDirect, true
	case PosQueryRes:
		return TagPosQueryRes, true
	case PosQueryFwd:
		return TagPosQueryFwd, true
	case RangeQueryReq:
		return TagRangeQueryReq, true
	case RangeQueryFwd:
		return TagRangeQueryFwd, true
	case RangeQuerySubRes:
		return TagRangeQuerySubRes, true
	case RangeQueryRes:
		return TagRangeQueryRes, true
	case NeighborQueryReq:
		return TagNeighborQueryReq, true
	case NeighborQueryRes:
		return TagNeighborQueryRes, true
	case EventSubscribe:
		return TagEventSubscribe, true
	case EventUnsubscribe:
		return TagEventUnsubscribe, true
	case EventCount:
		return TagEventCount, true
	case EventNotify:
		return TagEventNotify, true
	case DiagReq:
		return TagDiagReq, true
	case DiagRes:
		return TagDiagRes, true
	case Ack:
		return TagAck, true
	case ErrorRes:
		return TagErrorRes, true
	case ReplAppend:
		return TagReplAppend, true
	case ReplAck:
		return TagReplAck, true
	case RunFetch:
		return TagRunFetch, true
	case RunFetchRes:
		return TagRunFetchRes, true
	case Promote:
		return TagPromote, true
	case PromoteRes:
		return TagPromoteRes, true
	case PathBatch:
		return TagPathBatch, true
	}
	return TagInvalid, false
}

// AllTags returns every assigned tag in ascending order. Tests iterate it
// to prove codec coverage of the full registry.
func AllTags() []Tag {
	tags := make([]Tag, 0, tagEnd-1)
	for t := Tag(1); t < tagEnd; t++ {
		if tagNames[t] != "" {
			tags = append(tags, t)
		}
	}
	return tags
}
