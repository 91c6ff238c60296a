package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"locsvc/internal/msg"
)

// randomEnvelope builds one envelope with a random registered payload and
// random header fields.
func randomEnvelope(rng *rand.Rand) msg.Envelope {
	tags := msg.AllTags()
	for {
		tag := tags[rng.Intn(len(tags))]
		m, ok := randomMessage(rng, tag)
		if !ok {
			continue
		}
		return msg.Envelope{
			From:   randNodeID(rng),
			CorrID: rng.Uint64(),
			Reply:  rng.Intn(2) == 0,
			Msg:    m,
		}
	}
}

// TestBatchRoundTripRandomCorpus drives batch(encode) → decode over random
// envelope corpora of every size from one (the legacy-frame rule) up past
// typical coalescer caps: the decoded batch must equal the input envelope
// for envelope, in order.
func TestBatchRoundTripRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for size := 1; size <= 17; size++ {
		for trial := 0; trial < 32; trial++ {
			envs := make([]msg.Envelope, size)
			for i := range envs {
				envs[i] = randomEnvelope(rng)
			}
			data, err := EncodeBatch(envs)
			if err != nil {
				t.Fatalf("size %d: encoding batch: %v", size, err)
			}
			got, err := DecodeBatch(data)
			if err != nil {
				t.Fatalf("size %d: decoding batch: %v", size, err)
			}
			if len(got) != size {
				t.Fatalf("size %d: decoded %d envelopes", size, len(got))
			}
			for i := range envs {
				if !reflect.DeepEqual(got[i], envs[i]) {
					t.Fatalf("size %d: envelope %d mismatch:\n got %#v\nwant %#v", size, i, got[i], envs[i])
				}
			}
			if size == 1 {
				if IsBatch(data) {
					t.Fatalf("1-envelope batch encoded as a batch frame")
				}
			} else if !IsBatch(data) {
				t.Fatalf("%d-envelope batch not recognized as a batch frame", size)
			}
		}
	}
}

// TestBatchOfOneIsLegacyFrame pins the compatibility rule byte-for-byte: a
// batch of one envelope IS the legacy frame, so a batching sender stays
// interoperable with any receiver, and DecodeBatch accepts legacy frames,
// so a batch-aware receiver accepts any sender.
func TestBatchOfOneIsLegacyFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		env := randomEnvelope(rng)
		legacy, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := EncodeBatch([]msg.Envelope{env})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy, batched) {
			t.Fatalf("1-envelope batch differs from legacy frame:\nbatch  %x\nlegacy %x", batched, legacy)
		}
		envs, err := DecodeBatch(legacy)
		if err != nil {
			t.Fatalf("DecodeBatch on legacy frame: %v", err)
		}
		if len(envs) != 1 || !reflect.DeepEqual(envs[0], env) {
			t.Fatalf("DecodeBatch(legacy) = %#v, want %#v", envs, env)
		}
	}
}

// TestEncodeBatchEmpty pins that a zero-envelope batch is an encode error,
// not an empty datagram.
func TestEncodeBatchEmpty(t *testing.T) {
	if _, err := EncodeBatch(nil); err == nil {
		t.Fatal("encoding an empty batch succeeded")
	}
}

// TestBatchBuilderMatchesEncodeBatch proves the incremental builder (the
// transport coalescer's path) produces byte-identical datagrams to the
// one-shot encoder, and that its size projections are exact — the
// coalescer's pre-flight MaxDatagram check depends on them.
func TestBatchBuilderMatchesEncodeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, size := range []int{1, 2, 3, 7, 150} {
		envs := make([]msg.Envelope, size)
		var bb BatchBuilder
		for i := range envs {
			envs[i] = randomEnvelope(rng)
			frame, err := Encode(envs[i])
			if err != nil {
				t.Fatal(err)
			}
			projected := bb.SizeWith(len(frame))
			bb.Add(frame)
			if bb.Size() != projected {
				t.Fatalf("size %d: SizeWith projected %d, Size after Add = %d", size, projected, bb.Size())
			}
		}
		if bb.Count() != size {
			t.Fatalf("builder count = %d, want %d", bb.Count(), size)
		}
		oneShot, err := EncodeBatch(envs)
		if err != nil {
			t.Fatal(err)
		}
		built := bb.AppendTo(nil)
		if !bytes.Equal(oneShot, built) {
			t.Fatalf("size %d: builder bytes differ from EncodeBatch", size)
		}
		if bb.Size() != len(built) {
			t.Fatalf("size %d: Size() = %d, emitted %d bytes", size, bb.Size(), len(built))
		}
		bb.Reset()
		if bb.Count() != 0 || bb.Size() != 0 || len(bb.AppendTo(nil)) != 0 {
			t.Fatalf("reset builder not empty")
		}
	}
}

// TestDecodeBatchRejectsCorruption is the corruption table for the batch
// header and stream: bad counts, truncations at every byte boundary,
// corrupted inner length prefixes and trailing bytes must all error out —
// a batch datagram parses exactly or not at all.
func TestDecodeBatchRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	envs := []msg.Envelope{randomEnvelope(rng), randomEnvelope(rng), randomEnvelope(rng)}
	data, err := EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if cut > 0 && !IsBatch(data[:cut]) {
				continue // not a batch prefix (can't happen: magic is byte 0)
			}
			if _, err := DecodeBatch(data[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(data))
			}
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeBatch(append(append([]byte{}, data...), 0x00)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})

	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[1] ^= 0xff
		if _, err := DecodeBatch(bad); err == nil {
			t.Fatal("wrong version accepted")
		}
	})

	t.Run("bad counts", func(t *testing.T) {
		cases := map[string][]byte{
			"count zero":      {batchMagic, wireVersion, 0x00},
			"count one":       {batchMagic, wireVersion, 0x01},
			"header only":     {batchMagic, wireVersion},
			"magic only":      {batchMagic},
			"huge count":      {batchMagic, wireVersion, 0xff, 0xff, 0xff, 0xff, 0x0f},
			"truncated count": {batchMagic, wireVersion, 0x80},
		}
		for name, datagram := range cases {
			if _, err := DecodeBatch(datagram); err == nil {
				t.Errorf("%s accepted", name)
			}
		}
	})

	t.Run("count exceeds envelopes", func(t *testing.T) {
		// A valid 2-envelope stream under a count of 3: truncated
		// mid-stream from the decoder's point of view.
		two, err := EncodeBatch(envs[:2])
		if err != nil {
			t.Fatal(err)
		}
		forged := append([]byte{batchMagic, wireVersion, 0x03}, two[3:]...)
		if _, err := DecodeBatch(forged); err == nil {
			t.Fatal("count beyond envelope stream accepted")
		}
	})

	t.Run("corrupt inner length", func(t *testing.T) {
		// The first envelope's length prefix sits right after the count.
		bad := append([]byte{}, data...)
		bad[3] = 0xff // claims a 127-byte... actually varint 0xff needs a continuation — both paths must error
		if _, err := DecodeBatch(bad); err == nil {
			t.Fatal("corrupt inner length prefix accepted")
		}
	})
}
