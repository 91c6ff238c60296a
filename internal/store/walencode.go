package store

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"locsvc/internal/core"
)

// walTimeMemo caches the most recent timestamp encoding. Group-commit
// records cluster in time — a batch often shares one sighting timestamp,
// and a writer's drain spans milliseconds — so the RFC 3339 formatting
// (the single most expensive piece of the encode) is usually a copy.
type walTimeMemo struct {
	last time.Time
	text []byte
}

// appendWALRecordJSON appends rec's JSON-lines encoding (including the
// trailing newline) to dst. Sighting records — the per-update hot path of
// ShardedWAL's writer goroutines — are encoded by hand an order of magnitude
// cheaper than encoding/json; everything else falls back to the standard
// marshaler. memo (optional) carries the timestamp cache across calls. The
// output is plain JSON that Replay's json.Unmarshal reads back
// identically, property-tested against the standard encoding in
// TestWALRecordEncodingRoundTrip.
func appendWALRecordJSON(dst []byte, rec WALRecord, memo *walTimeMemo) ([]byte, error) {
	switch rec.Op {
	case WALSightingRemove:
		if rec.Visitor == nil && rec.Sightings == nil {
			dst = append(dst, `{"op":"sremove","oid":`...)
			dst = appendJSONString(dst, string(rec.OID))
			return append(dst, '}', '\n'), nil
		}
	case WALSightingBatch:
		if rec.Visitor == nil && rec.OID == "" {
			return appendSightingBatchJSON(dst, rec.Sightings, memo)
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("store: marshaling WAL record: %w", err)
	}
	return append(append(dst, data...), '\n'), nil
}

// appendSightingBatchJSON encodes one WALSightingBatch record.
func appendSightingBatchJSON(dst []byte, batch []core.Sighting, memo *walTimeMemo) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, `{"op":"sbatch","sightings":[`...)
	for i, s := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		if !isFinite(s.Pos.X) || !isFinite(s.Pos.Y) || !isFinite(s.SensAcc) {
			return dst[:mark], fmt.Errorf("store: marshaling WAL record: non-finite coordinate in sighting %s", s.OID)
		}
		if y := s.T.Year(); y < 0 || y >= 10000 {
			return dst[:mark], fmt.Errorf("store: marshaling WAL record: timestamp year %d of sighting %s outside JSON range", y, s.OID)
		}
		dst = append(dst, `{"OID":`...)
		dst = appendJSONString(dst, string(s.OID))
		dst = append(dst, `,"T":"`...)
		if memo != nil {
			// == (not Equal): a cache hit must reproduce the exact
			// serialization, so the zone has to match too.
			if s.T != memo.last || len(memo.text) == 0 {
				memo.last = s.T
				memo.text = s.T.AppendFormat(memo.text[:0], time.RFC3339Nano)
			}
			dst = append(dst, memo.text...)
		} else {
			dst = s.T.AppendFormat(dst, time.RFC3339Nano)
		}
		dst = append(dst, `","Pos":{"X":`...)
		dst = strconv.AppendFloat(dst, s.Pos.X, 'g', -1, 64)
		dst = append(dst, `,"Y":`...)
		dst = strconv.AppendFloat(dst, s.Pos.Y, 'g', -1, 64)
		dst = append(dst, `},"SensAcc":`...)
		dst = strconv.AppendFloat(dst, s.SensAcc, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}', '\n'), nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONString appends s as a quoted JSON string. Object ids are almost
// always plain ASCII, so the common case is a straight copy; anything that
// needs escaping takes the per-rune slow path.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, fmt.Sprintf(`\u%04x`, c)...)
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
