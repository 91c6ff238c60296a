package wire

import (
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// Benchmark envelopes: the two messages that dominate steady-state
// traffic. UpdateReq is the per-position-report request every tracked
// object sends; PosQueryRes is the standard query answer (and carries the
// LeafInfo polygon, the costliest composite field).
func benchUpdateEnvelope() msg.Envelope {
	return msg.Envelope{
		From:   "obj-node-17",
		CorrID: 421,
		Msg: msg.UpdateReq{S: core.Sighting{
			OID: "truck-7", T: time.Unix(1_700_000_000, 250_000_000).UTC(),
			Pos: geo.Pt(1234.5, 987.25), SensAcc: 10,
		}},
	}
}

func benchPosResEnvelope() msg.Envelope {
	return msg.Envelope{
		From:   "r.2",
		CorrID: 99,
		Reply:  true,
		Msg: msg.PosQueryRes{
			OpID:  7,
			Found: true,
			LD:    core.LocationDescriptor{Pos: geo.Pt(431.25, 1102.5), Acc: 12.5},
			Agent: "r.2",
			AgentInfo: msg.LeafInfo{
				ID:   "r.2",
				Area: core.AreaFromRect(geo.R(0, 750, 750, 1500)),
			},
			MaxSpeed: 15,
			Hops:     3,
		},
	}
}

func benchEnvelopes() map[string]msg.Envelope {
	return map[string]msg.Envelope{
		"UpdateReq":   benchUpdateEnvelope(),
		"PosQueryRes": benchPosResEnvelope(),
	}
}

// BenchmarkWireEncode measures the binary encoder appending into a reused
// buffer — the transport's send path. Steady state is 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	for name, env := range benchEnvelopes() {
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = AppendEncode(buf[:0], env)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode measures the binary decoder reading straight out of
// a receive buffer — the transport's read path. The only allocations are
// the decoded envelope's own strings, slices and interface box.
func BenchmarkWireDecode(b *testing.B) {
	for name, env := range benchEnvelopes() {
		b.Run(name, func(b *testing.B) {
			data, err := Encode(env)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireRoundTrip is encode+decode back to back: the full codec
// cost of one request or response datagram.
func BenchmarkWireRoundTrip(b *testing.B) {
	for name, env := range benchEnvelopes() {
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = AppendEncode(buf[:0], env)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
