package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/live"
)

// sameOps compares two decoded op lists field by field, floats as
// stored bits.
func sameOps(a, b []live.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.ID != y.ID || !samePoint(x.Loc, y.Loc) ||
			x.Tuple.ID != y.Tuple.ID || !samePoint(x.Tuple.Loc, y.Tuple.Loc) ||
			x.Tuple.Name != y.Tuple.Name || x.Tuple.Category != y.Tuple.Category ||
			len(x.Tuple.Attrs) != len(y.Tuple.Attrs) || len(x.Tuple.Tags) != len(y.Tuple.Tags) {
			return false
		}
		for k, v := range x.Tuple.Attrs {
			if w, ok := y.Tuple.Attrs[k]; !ok || !sameBits(v, w) {
				return false
			}
		}
		for k, v := range x.Tuple.Tags {
			if w, ok := y.Tuple.Tags[k]; !ok || v != w {
				return false
			}
		}
	}
	return true
}

// FuzzWALFrame drives decodePayload with arbitrary checksum-valid
// payloads. It must never panic, the op slice it allocates is bounded
// by the payload length whatever count the payload declares, and
// whatever it accepts must survive encodeFrame: the re-encoded payload
// decodes to the same frame and re-encodes to the same bytes. The
// corpus starts from the frames of the torture fixture's WAL, which
// encodeFrame wrote and which therefore re-encode to exactly their own
// bytes.
func FuzzWALFrame(f *testing.F) {
	fx := buildTortureFixture(f)
	canonical := map[string]bool{}
	for rest := fx.wal[walHeaderSize:]; len(rest) >= 8; {
		n := binary.LittleEndian.Uint32(rest)
		payload := rest[8 : 8+n]
		canonical[string(payload)] = true
		f.Add(payload)
		rest = rest[8+n:]
	}
	if len(canonical) == 0 {
		f.Fatal("torture fixture WAL holds no frames")
	}
	// A declared op count of 2³²−1 over one delete op.
	huge := binary.LittleEndian.AppendUint64(nil, 7)
	huge = binary.LittleEndian.AppendUint32(huge, ^uint32(0))
	huge = append(huge, byte(live.OpDelete), 2)
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := decodePayload(payload)
		if c := cap(fr.ops); c > len(payload) {
			t.Fatalf("op slice capacity %d exceeds the %d-byte payload", c, len(payload))
		}
		if err != nil {
			return
		}
		enc, err := encodeFrame(fr.epochBefore, fr.ops)
		if err != nil {
			t.Fatalf("accepted frame failed to encode: %v", err)
		}
		re := enc[8:]
		if canonical[string(payload)] && !bytes.Equal(re, payload) {
			t.Fatal("fixture frame did not re-encode to its own bytes")
		}
		fr2, err := decodePayload(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if fr2.epochBefore != fr.epochBefore || !sameOps(fr2.ops, fr.ops) {
			t.Fatalf("round trip drifted: %+v vs %+v", fr, fr2)
		}
		if enc2, _ := encodeFrame(fr2.epochBefore, fr2.ops); !bytes.Equal(enc2, enc) {
			t.Fatal("canonical frame encoding not stable")
		}
	})
}
