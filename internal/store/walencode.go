package store

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

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
// trailing newline) to dst. It is the one log encoder: every record kind is
// encoded by hand, and encoding/json only reads logs back. Visitor and
// sremove records are byte for byte what json.Marshal writes for them;
// a sighting batch writes its floats in strconv's shortest 'g' form, which
// json.Unmarshal reads back to the same record. TestWALRecordEncodingRoundTrip
// pins both. memo (optional) carries the timestamp cache across calls.
// What json.Marshal refuses — a NaN or infinite float, a timestamp outside
// RFC 3339 — is an error, and so is a record whose fields do not fit its
// Op; either way dst comes back unchanged.
func appendWALRecordJSON(dst []byte, rec WALRecord, memo *walTimeMemo) ([]byte, error) {
	out, err := appendWALRecord(dst, rec, memo)
	if err != nil {
		return dst, fmt.Errorf("store: marshaling WAL record: %w", err)
	}
	return append(out, '\n'), nil
}

// appendWALRecord appends rec's JSON object. The field order and the
// omitempty rules are WALRecord's and VisitorRecord's struct tags.
func appendWALRecord(dst []byte, rec WALRecord, memo *walTimeMemo) ([]byte, error) {
	visitor, batch, oid := rec.Visitor != nil, len(rec.Sightings) > 0, rec.OID != ""
	switch {
	case (rec.Op == WALPut || rec.Op == WALRemove) && visitor && !batch && !oid:
		dst = append(dst, `{"op":`...)
		dst = appendJSONString(dst, string(rec.Op))
		dst = append(dst, `,"visitor":`...)
		out, err := appendVisitorJSON(dst, rec.Visitor, memo)
		return append(out, '}'), err
	case rec.Op == WALSightingBatch && !visitor && !oid:
		return appendSightingBatchJSON(dst, rec.Sightings, memo)
	case rec.Op == WALSightingRemove && !visitor && !batch:
		dst = append(dst, `{"op":"sremove"`...)
		if oid {
			dst = append(dst, `,"oid":`...)
			dst = appendJSONString(dst, string(rec.OID))
		}
		return append(dst, '}'), nil
	}
	return dst, fmt.Errorf("%q record with fields that do not fit it", rec.Op)
}

// appendVisitorJSON encodes a visitor record. regInfo and pathT are
// structs, which omitempty never omits.
func appendVisitorJSON(dst []byte, v *VisitorRecord, memo *walTimeMemo) ([]byte, error) {
	dst = append(dst, `{"oid":`...)
	dst = appendJSONString(dst, string(v.OID))
	if v.ForwardRef != "" {
		dst = append(dst, `,"forwardRef":`...)
		dst = appendJSONString(dst, v.ForwardRef)
	}
	var err error
	if v.OfferedAcc != 0 {
		dst = append(dst, `,"offeredAcc":`...)
		if dst, err = appendJSONFloat(dst, v.OfferedAcc); err != nil {
			return dst, err
		}
	}
	ri := &v.RegInfo
	dst = append(dst, `,"regInfo":{"Registrant":`...)
	dst = appendJSONString(dst, ri.Registrant)
	for _, f := range [...]struct {
		name string
		v    float64
	}{{`,"DesAcc":`, ri.DesAcc}, {`,"MinAcc":`, ri.MinAcc}, {`,"MaxSpeed":`, ri.MaxSpeed}} {
		dst = append(dst, f.name...)
		if dst, err = appendJSONFloat(dst, f.v); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `},"pathT":`...)
	if dst, err = appendJSONTime(dst, v.PathT, memo); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendSightingBatchJSON encodes one WALSightingBatch record.
func appendSightingBatchJSON(dst []byte, batch []core.Sighting, memo *walTimeMemo) ([]byte, error) {
	dst = append(dst, `{"op":"sbatch","sightings":[`...)
	for i, s := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		if !isFinite(s.Pos.X) || !isFinite(s.Pos.Y) || !isFinite(s.SensAcc) {
			return dst, fmt.Errorf("non-finite coordinate in sighting %s", s.OID)
		}
		dst = append(dst, `{"OID":`...)
		dst = appendJSONString(dst, string(s.OID))
		dst = append(dst, `,"T":`...)
		var err error
		if dst, err = appendJSONTime(dst, s.T, memo); err != nil {
			return dst, fmt.Errorf("sighting %s: %w", s.OID, err)
		}
		dst = append(dst, `,"Pos":{"X":`...)
		dst = strconv.AppendFloat(dst, s.Pos.X, 'g', -1, 64)
		dst = append(dst, `,"Y":`...)
		dst = strconv.AppendFloat(dst, s.Pos.Y, 'g', -1, 64)
		dst = append(dst, `},"SensAcc":`...)
		dst = strconv.AppendFloat(dst, s.SensAcc, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}'), nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONFloat appends f as encoding/json does: the shortest 'f' form,
// or the 'e' form below 1e-6 and from 1e21 up with a one-digit negative
// exponent unpadded.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if !isFinite(f) {
		return dst, fmt.Errorf("unsupported float %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONTime appends t quoted as time.Time's MarshalJSON does, through
// memo when it is set.
func appendJSONTime(dst []byte, t time.Time, memo *walTimeMemo) ([]byte, error) {
	dst = append(dst, '"')
	if memo == nil {
		var err error
		if dst, err = appendRFC3339(dst, t); err != nil {
			return dst, err
		}
		return append(dst, '"'), nil
	}
	// == (not Equal): a cache hit must reproduce the exact serialization,
	// so the zone has to match too.
	if t != memo.last || len(memo.text) == 0 {
		text, err := appendRFC3339(memo.text[:0], t)
		if err != nil {
			// The refused text may have overwritten the cached one.
			memo.text = text[:0]
			return dst, err
		}
		memo.last, memo.text = t, text
	}
	dst = append(dst, memo.text...)
	return append(dst, '"'), nil
}

// appendRFC3339 appends t in RFC 3339 with nanoseconds, in its own zone,
// and refuses what time.Time's MarshalJSON refuses, by the same checks on
// the same text: a year that is not four digits, a zone hour of 24 or more.
func appendRFC3339(dst []byte, t time.Time) ([]byte, error) {
	out := t.AppendFormat(dst, time.RFC3339Nano)
	if out[len(dst)+4] != '-' {
		return dst, fmt.Errorf("timestamp year %d outside JSON range", t.Year())
	}
	if zone := out[len(out)-6:]; out[len(out)-1] != 'Z' &&
		('0' <= zone[0] && zone[0] <= '9' || (zone[1]-'0')*10+zone[2]-'0' >= 24) {
		return dst, fmt.Errorf("timestamp zone %s outside JSON range", zone)
	}
	return out, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json does, HTML escaping
// included: '"' and '\\' escaped, \b \f \n \r \t in short form, other
// control bytes and '<', '>' and '&' as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and invalid UTF-8 as \ufffd. Object ids are almost
// always plain ASCII, so the common case is a straight copy.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
