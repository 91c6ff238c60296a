package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"locsvc/internal/core"
)

// walHeader opens every log file (see "Log format" in wal.go): the magic
// "LSWAL" and format version 001.
const walHeader = "LSWAL001"

// walFrameSize is a record's frame: length, CRC32(length), CRC32(payload).
const walFrameSize = 12

// The op byte that starts every payload, and the Op it stands for.
const (
	walOpPut byte = 1 + iota
	walOpRemove
	walOpSightingBatch
	walOpSightingRemove
)

var walOps = [...]WALOp{walOpPut: WALPut, walOpRemove: WALRemove,
	walOpSightingBatch: WALSightingBatch, walOpSightingRemove: WALSightingRemove}

// appendWALRecord appends rec's frame and payload to dst. A record whose
// fields do not fit its Op, a non-zero timestamp outside the range of
// UnixNano and a payload too long for the length field are errors, and dst
// comes back unchanged.
func appendWALRecord(dst []byte, rec WALRecord) ([]byte, error) {
	out, err := appendWALPayload(append(dst, make([]byte, walFrameSize)...), rec)
	if err != nil {
		return dst, fmt.Errorf("store: encoding WAL record: %w", err)
	}
	payload := out[len(dst)+walFrameSize:]
	if uint64(len(payload)) > math.MaxUint32 {
		return dst, fmt.Errorf("store: encoding WAL record: %d-byte payload", len(payload))
	}
	frame := out[len(dst) : len(dst)+walFrameSize]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[:4]))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
	return out, nil
}

// appendWALPayload appends rec's op byte and body.
func appendWALPayload(dst []byte, rec WALRecord) ([]byte, error) {
	visitor, batch, oid := rec.Visitor != nil, len(rec.Sightings) > 0, rec.OID != ""
	switch {
	case rec.Op == WALPut && visitor && !batch && !oid:
		return appendVisitorPayload(append(dst, walOpPut), rec.Visitor)
	case rec.Op == WALRemove && visitor && !batch && !oid:
		return appendVisitorPayload(append(dst, walOpRemove), rec.Visitor)
	case rec.Op == WALSightingBatch && !visitor && !oid:
		dst = binary.AppendUvarint(append(dst, walOpSightingBatch), uint64(len(rec.Sightings)))
		for _, s := range rec.Sightings {
			if !core.InNanoRange(s.T) {
				return dst, fmt.Errorf("sighting %s: timestamp %v outside the range of UnixNano", s.OID, s.T)
			}
			dst = appendRunRecord(dst, runRecord{s: s})
		}
		return dst, nil
	case rec.Op == WALSightingRemove && !visitor && !batch:
		return appendRunRecord(append(dst, walOpSightingRemove), runRecord{s: core.Sighting{OID: rec.OID}, tombstone: true}), nil
	}
	return dst, fmt.Errorf("%q record with fields that do not fit it", rec.Op)
}

// appendVisitorPayload appends a visitor record's fields in declaration
// order: strings uvarint-length-prefixed, floats as IEEE bits, PathT
// through unixNanos.
func appendVisitorPayload(dst []byte, v *VisitorRecord) ([]byte, error) {
	if !core.InNanoRange(v.PathT) {
		return dst, fmt.Errorf("visitor %s: PathT %v outside the range of UnixNano", v.OID, v.PathT)
	}
	dst = appendWALString(dst, string(v.OID))
	dst = appendWALString(dst, v.ForwardRef)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.OfferedAcc))
	dst = appendWALString(dst, v.RegInfo.Registrant)
	for _, f := range [...]float64{v.RegInfo.DesAcc, v.RegInfo.MinAcc, v.RegInfo.MaxSpeed} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(unixNanos(v.PathT))), nil
}

func appendWALString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// errWALPayload is the decode failure of a payload whose CRC matched.
var errWALPayload = errors.New("malformed payload")

// decodeWALRecord decodes one payload. It accepts exactly what
// appendWALPayload writes; timestamps come back in UTC.
func decodeWALRecord(p []byte) (WALRecord, error) {
	if len(p) == 0 || p[0] == 0 || int(p[0]) >= len(walOps) {
		return WALRecord{}, errWALPayload
	}
	rec, body, pos := WALRecord{Op: walOps[p[0]]}, p[1:], 0
	var r runRecord
	var err error
	switch rec.Op {
	case WALPut, WALRemove:
		rec.Visitor, err = decodeVisitorPayload(body)
		return rec, err
	case WALSightingBatch:
		n, w := binary.Uvarint(body)
		// A live run record takes more than runLivePayload bytes.
		if w <= 0 || n > uint64(len(body)-w)/runLivePayload {
			return WALRecord{}, errWALPayload
		}
		rec.Sightings, pos = make([]core.Sighting, 0, n), w
		for len(rec.Sightings) < int(n) {
			if r, pos, err = decodeRunRecord(body, pos); err != nil {
				return WALRecord{}, err
			}
			if r.tombstone || !r.expires.IsZero() {
				return WALRecord{}, errWALPayload
			}
			r.s.T = r.s.T.UTC()
			rec.Sightings = append(rec.Sightings, r.s)
		}
	case WALSightingRemove:
		if r, pos, err = decodeRunRecord(body, 0); err != nil {
			return WALRecord{}, err
		}
		if !r.tombstone {
			return WALRecord{}, errWALPayload
		}
		rec.OID = r.s.OID
	}
	if pos != len(body) {
		return WALRecord{}, errWALPayload
	}
	return rec, nil
}

// decodeVisitorPayload inverts appendVisitorPayload.
func decodeVisitorPayload(p []byte) (*VisitorRecord, error) {
	ok := true // false once a field ran past the end; later reads yield zero
	str := func() string {
		n, w := binary.Uvarint(p)
		if !ok || w <= 0 || n > uint64(len(p)-w) {
			ok = false
			return ""
		}
		s := string(p[w : w+int(n)])
		p = p[w+int(n):]
		return s
	}
	word := func() uint64 {
		if !ok || len(p) < 8 {
			ok = false
			return 0
		}
		u := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return u
	}
	num := func() float64 { return math.Float64frombits(word()) }
	v := &VisitorRecord{OID: core.OID(str()), ForwardRef: str(), OfferedAcc: num()}
	v.RegInfo = core.RegInfo{Registrant: str(), DesAcc: num(), MinAcc: num(), MaxSpeed: num()}
	v.PathT = unixTime(int64(word()))
	if !ok || len(p) != 0 {
		return nil, errWALPayload
	}
	return v, nil
}
