package strategy

import (
	"bytes"
	"errors"
	"testing"

	"evogame/internal/rng"
)

// FuzzDecode feeds arbitrary bytes to the codec.  Decode must never panic
// and must reject with ErrCorrupt; whatever it admits must re-encode byte
// for byte; and DecodeInto, given a scratch strategy of the buffer's
// declared depth, must accept exactly what Decode accepts, decode it to the
// same strategy, and leave the scratch untouched when it rejects.
func FuzzDecode(f *testing.F) {
	src := rng.New(1)
	for mem := 1; mem <= 6; mem++ {
		enc, err := Encode(RandomPure(mem, src))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if mem == 3 {
			f.Add(enc[:len(enc)-5]) // truncated payload
		}
	}
	tail, _ := Encode(NewPure(2))
	tail[len(tail)-1] = 0x80 // a bit beyond memory two's 16 states
	f.Add(tail)
	f.Add(kindTwo)
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := Decode(buf)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
		}
		if err == nil {
			enc, err := Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, buf) {
				t.Fatalf("Decode admitted %x, which re-encodes as %x", buf, enc)
			}
		}
		if len(buf) < 3 || buf[2] < 1 || buf[2] > 6 {
			return
		}
		scratch := AllD(int(buf[2]))
		errInto := DecodeInto(scratch, buf)
		switch {
		case (errInto == nil) != (err == nil):
			t.Fatalf("DecodeInto error %v, Decode error %v", errInto, err)
		case err == nil && !scratch.Equal(p):
			t.Fatalf("DecodeInto gave %v, Decode %v", scratch, p)
		case err != nil && !scratch.Equal(AllD(int(buf[2]))):
			t.Fatalf("a rejected buffer changed the scratch strategy to %v", scratch)
		}
	})
}
