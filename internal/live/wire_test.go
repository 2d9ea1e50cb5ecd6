package live

import (
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	const space = uint64(64800)
	for _, tc := range []struct {
		sender int
		round  uint64
		state  uint64
	}{
		{0, 0, 0},
		{7, 1, 64799},
		{31, 1 << 40, 12345},
	} {
		fr := appendFrame(nil, tc.sender, tc.round, tc.state, space)
		if len(fr) != frameSize {
			t.Fatalf("frame is %d bytes, want %d", len(fr), frameSize)
		}
		sender, round, state, err := decodeFrame(fr, 32, space)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if sender != tc.sender || round != tc.round || state != tc.state {
			t.Fatalf("round trip got (%d, %d, %d), want (%d, %d, %d)",
				sender, round, state, tc.sender, tc.round, tc.state)
		}
	}
}

func TestFrameAppendsToBuffer(t *testing.T) {
	prefix := []byte{1, 2, 3}
	fr := appendFrame(prefix, 4, 9, 11, 100)
	if len(fr) != 3+frameSize {
		t.Fatalf("appendFrame grew buffer to %d bytes, want %d", len(fr), 3+frameSize)
	}
	if _, _, _, err := decodeFrame(fr[3:], 8, 100); err != nil {
		t.Fatalf("decode of appended frame: %v", err)
	}
}

// Every malformed-frame class must be rejected with a loud error and,
// critically, without panicking: the chaos injector forwards exactly
// these bytes on purpose.
func TestDecodeFrameRejections(t *testing.T) {
	const space = uint64(1000)
	good := appendFrame(nil, 3, 42, 555, space)

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"truncated", good[:frameSize-1], "bytes"},
		{"empty", nil, "bytes"},
		{"oversized", append(append([]byte(nil), good...), 0xFF), "bytes"},
		{"bad magic", corrupt(func(b []byte) { b[0] = 0x00 }), "magic"},
		{"bad version", corrupt(func(b []byte) { b[1] = 99 }), "version"},
		{"flipped payload byte", corrupt(func(b []byte) { b[10] ^= 0x40 }), "checksum"},
		{"flipped crc byte", corrupt(func(b []byte) { b[frameSize-1] ^= 0x01 }), "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := decodeFrame(tc.b, 8, space)
			if err == nil {
				t.Fatalf("decode accepted a %s frame", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A forged frame (resealed CRC) authenticates but is still rejected
// when its claims are out of range — the decoder trusts nothing.
func TestDecodeFrameRangeChecks(t *testing.T) {
	const space = uint64(1000)

	oob := appendFrame(nil, 7, 1, 5, space)
	if _, _, _, err := decodeFrame(oob, 4, space); err == nil {
		t.Fatal("decode accepted sender 7 in a 4-node network")
	}

	forged := appendFrame(nil, 2, 1, 5, space)
	resealFrame(forged, space+17) // authentic CRC, out-of-space state
	if _, _, _, err := decodeFrame(forged, 8, space); err == nil {
		t.Fatal("decode accepted an out-of-space state word")
	}
}

func TestResealFrameForgesAuthenticFrames(t *testing.T) {
	const space = uint64(1000)
	fr := appendFrame(nil, 5, 77, 123, space)
	resealFrame(fr, 999)
	sender, round, state, err := decodeFrame(fr, 8, space)
	if err != nil {
		t.Fatalf("forged frame did not authenticate: %v", err)
	}
	if sender != 5 || round != 77 || state != 999 {
		t.Fatalf("forged frame decoded to (%d, %d, %d), want (5, 77, 999)", sender, round, state)
	}
}

func TestCorruptFrameLeavesOriginalIntact(t *testing.T) {
	const space = uint64(1000)
	fr := appendFrame(nil, 1, 2, 3, space)
	orig := append([]byte(nil), fr...)
	var ep epochArena
	sawForge, sawFlip := false, false
	for word := uint64(0); word < 64; word++ {
		out := ep.corrupt(fr, word*0x9e3779b97f4a7c15, space)
		if string(fr) != string(orig) {
			t.Fatal("corruption mutated the shared original frame")
		}
		if _, _, _, err := decodeFrame(out, 8, space); err == nil {
			sawForge = true
		} else {
			sawFlip = true
		}
	}
	if !sawForge || !sawFlip {
		t.Fatalf("corruption mix incomplete: forge=%v flip=%v", sawForge, sawFlip)
	}
}
