package codec

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		radices []uint64
		wantErr bool
	}{
		{name: "empty", radices: nil, wantErr: true},
		{name: "zero radix", radices: []uint64{3, 0, 2}, wantErr: true},
		{name: "single", radices: []uint64{7}, wantErr: false},
		{name: "radix one", radices: []uint64{1, 1, 5}, wantErr: false},
		{name: "overflow", radices: []uint64{1 << 32, 1 << 31}, wantErr: true},
		{name: "at limit", radices: []uint64{1 << 31, 1 << 31}, wantErr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.radices...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%v) error = %v, wantErr %v", tt.radices, err, tt.wantErr)
			}
		})
	}
}

func TestSpaceAndBits(t *testing.T) {
	tests := []struct {
		radices []uint64
		space   uint64
		bits    int
	}{
		{[]uint64{2}, 2, 1},
		{[]uint64{3}, 3, 2},
		{[]uint64{2, 2, 2}, 8, 3},
		{[]uint64{10, 10}, 100, 7},
		{[]uint64{1}, 1, 0},
		{[]uint64{2304, 961, 2}, 2304 * 961 * 2, 23},
	}
	for _, tt := range tests {
		c := mustNew(tt.radices...)
		if c.Space() != tt.space {
			t.Errorf("Space(%v) = %d, want %d", tt.radices, c.Space(), tt.space)
		}
		if c.Bits() != tt.bits {
			t.Errorf("Bits(%v) = %d, want %d", tt.radices, c.Bits(), tt.bits)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	c := mustNew(3, 5, 2, 7)
	var fields []uint64
	for a := uint64(0); a < 3; a++ {
		for b := uint64(0); b < 5; b++ {
			for d := uint64(0); d < 2; d++ {
				for e := uint64(0); e < 7; e++ {
					v := c.MustPack(a, b, d, e)
					if v >= c.Space() {
						t.Fatalf("packed value %d out of space %d", v, c.Space())
					}
					fields = c.Unpack(v, fields[:0])
					if fields[0] != a || fields[1] != b || fields[2] != d || fields[3] != e {
						t.Fatalf("round trip (%d,%d,%d,%d) -> %v", a, b, d, e, fields)
					}
				}
			}
		}
	}
}

func TestPackRejectsOutOfRange(t *testing.T) {
	c := mustNew(3, 5)
	if _, err := c.Pack(3, 0); err == nil {
		t.Error("Pack(3,0) with radix 3 should fail")
	}
	if _, err := c.Pack(0); err == nil {
		t.Error("Pack with wrong arity should fail")
	}
}

func TestPackDense(t *testing.T) {
	// Packing must be a bijection onto [0, space).
	c := mustNew(4, 3)
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 4; a++ {
		for b := uint64(0); b < 3; b++ {
			v := c.MustPack(a, b)
			if seen[v] {
				t.Fatalf("duplicate packed value %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 12 {
		t.Fatalf("got %d distinct values, want 12", len(seen))
	}
}

func TestField(t *testing.T) {
	c := mustNew(6, 11, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b, d := uint64(rng.Intn(6)), uint64(rng.Intn(11)), uint64(rng.Intn(4))
		v := c.MustPack(a, b, d)
		if got := c.Field(v, 0); got != a {
			t.Fatalf("Field(v,0) = %d, want %d", got, a)
		}
		if got := c.Field(v, 1); got != b {
			t.Fatalf("Field(v,1) = %d, want %d", got, b)
		}
		if got := c.Field(v, 2); got != d {
			t.Fatalf("Field(v,2) = %d, want %d", got, d)
		}
	}
}

func TestWithField(t *testing.T) {
	c := mustNew(6, 11, 4)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		v := uint64(rng.Int63n(int64(c.Space())))
		i := rng.Intn(3)
		x := uint64(rng.Int63n(int64(c.Radix(i))))
		w := c.WithField(v, i, x)
		if got := c.Field(w, i); got != x {
			t.Fatalf("WithField then Field = %d, want %d", got, x)
		}
		for j := 0; j < 3; j++ {
			if j == i {
				continue
			}
			if c.Field(w, j) != c.Field(v, j) {
				t.Fatalf("WithField disturbed field %d", j)
			}
		}
	}
}

func TestUnpackTotalOnAdversarialValues(t *testing.T) {
	// Values beyond the space must decode without panicking (adversaries
	// in layered constructions can hand us arbitrary words).
	c := mustNew(3, 5)
	for _, v := range []uint64{15, 16, 1 << 40, ^uint64(0)} {
		fields := c.Unpack(v, nil)
		if fields[0] >= 3 || fields[1] >= 5 {
			t.Fatalf("Unpack(%d) produced out-of-range fields %v", v, fields)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := mustNew(7, 13, 3, 2, 31)
	f := func(a, b, d, e, g uint64) bool {
		fields := []uint64{a % 7, b % 13, d % 3, e % 2, g % 31}
		v, err := c.Pack(fields...)
		if err != nil {
			return false
		}
		out := c.Unpack(v, nil)
		for i := range fields {
			if out[i] != fields[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMaxSpaceBoundary pins the admissibility boundary at exactly
// 2^62: a space of MaxSpace is the largest the simulator can carry on
// 64-bit words and must be accepted everywhere, one state more must be
// rejected with ErrSpaceTooLarge — never wrapped around or truncated.
func TestMaxSpaceBoundary(t *testing.T) {
	c, err := New(MaxSpace)
	if err != nil {
		t.Fatalf("New(2^62) = %v, want ok", err)
	}
	if c.Space() != MaxSpace || c.Bits() != 62 {
		t.Fatalf("New(2^62): space %d bits %d, want 2^62 and 62", c.Space(), c.Bits())
	}
	// The extreme states round-trip.
	if v := c.MustPack(MaxSpace - 1); v != MaxSpace-1 {
		t.Fatalf("Pack(2^62-1) = %d", v)
	}
	if _, err := c.Pack(MaxSpace); err == nil {
		t.Fatal("Pack(2^62) on a 2^62 space must be out of range")
	}
	if _, err := New(MaxSpace + 1); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("New(2^62+1) = %v, want ErrSpaceTooLarge", err)
	}
	// Products: exactly at the limit via factors, then one doubling past.
	if c, err := New(uint64(1)<<31, uint64(1)<<31); err != nil || c.Space() != MaxSpace {
		t.Fatalf("New(2^31, 2^31) = %v (space %v), want 2^62", err, c)
	}
	if _, err := New(uint64(1)<<31, uint64(1)<<31, 2); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("New(2^31, 2^31, 2) = %v, want ErrSpaceTooLarge", err)
	}
	if got, err := MulSpaces(uint64(1)<<61, 2); err != nil || got != MaxSpace {
		t.Fatalf("MulSpaces(2^61, 2) = %d, %v, want 2^62", got, err)
	}
	if _, err := MulSpaces(MaxSpace, 2); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("MulSpaces(2^62, 2) = %v, want ErrSpaceTooLarge", err)
	}
	if _, err := MulSpaces(MaxSpace + 1); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("MulSpaces(2^62+1) = %v, want ErrSpaceTooLarge", err)
	}
	if got, err := PowSpace(2, 62); err != nil || got != MaxSpace {
		t.Fatalf("PowSpace(2, 62) = %d, %v, want 2^62", got, err)
	}
	if _, err := PowSpace(2, 63); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("PowSpace(2, 63) = %v, want ErrSpaceTooLarge", err)
	}
}

func TestSpaceBits(t *testing.T) {
	tests := []struct {
		space uint64
		want  int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 62, 62},
	}
	for _, tt := range tests {
		if got := SpaceBits(tt.space); got != tt.want {
			t.Errorf("SpaceBits(%d) = %d, want %d", tt.space, got, tt.want)
		}
	}
}

func TestMulSpaces(t *testing.T) {
	if got, err := MulSpaces(4, 5, 6); err != nil || got != 120 {
		t.Errorf("MulSpaces(4,5,6) = %d, %v", got, err)
	}
	if _, err := MulSpaces(1<<40, 1<<40); err == nil {
		t.Error("MulSpaces overflow not detected")
	}
	if _, err := MulSpaces(3, 0); err == nil {
		t.Error("MulSpaces zero not detected")
	}
}

func TestPowSpace(t *testing.T) {
	if got, err := PowSpace(4, 4); err != nil || got != 256 {
		t.Errorf("PowSpace(4,4) = %d, %v", got, err)
	}
	if got, err := PowSpace(6, 0); err != nil || got != 1 {
		t.Errorf("PowSpace(6,0) = %d, %v", got, err)
	}
	if _, err := PowSpace(2, 64); err == nil {
		t.Error("PowSpace overflow not detected")
	}
}

func TestStateWordRoundTrip(t *testing.T) {
	for _, tt := range []struct {
		v, space uint64
	}{
		{0, 1}, {0, 64800}, {64799, 64800}, {1 << 61, 1 << 62},
	} {
		b, err := AppendStateWord(nil, tt.v, tt.space)
		if err != nil {
			t.Fatalf("AppendStateWord(%d, %d): %v", tt.v, tt.space, err)
		}
		if len(b) != stateWordSize {
			t.Fatalf("encoded %d bytes, want %d", len(b), stateWordSize)
		}
		got, err := DecodeStateWord(b, tt.space)
		if err != nil || got != tt.v {
			t.Fatalf("DecodeStateWord = %d, %v; want %d", got, err, tt.v)
		}
	}
}

func TestStateWordErrors(t *testing.T) {
	if _, err := AppendStateWord(nil, 5, 5); err == nil {
		t.Error("AppendStateWord accepted an out-of-space value")
	}
	if _, err := AppendStateWord(nil, 0, 0); err == nil {
		t.Error("AppendStateWord accepted a zero-sized space")
	}
	if _, err := DecodeStateWord([]byte{1, 2, 3}, 10); !errors.Is(err, errShortStateWord) {
		t.Errorf("truncated decode: got %v, want errShortStateWord", err)
	}
	if _, err := DecodeStateWord(make([]byte, 8), 0); err == nil {
		t.Error("DecodeStateWord accepted a zero-sized space")
	}
	big := []byte{0, 0, 0, 0, 0, 0, 0, 9}
	if _, err := DecodeStateWord(big, 9); err == nil {
		t.Error("DecodeStateWord accepted a word equal to the space size")
	}
}

func TestCodecStateMethods(t *testing.T) {
	cdc := mustNew(6, 5)
	b, err := cdc.AppendState(nil, 29)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cdc.DecodeState(b)
	if err != nil || v != 29 {
		t.Fatalf("DecodeState = %d, %v; want 29", v, err)
	}
	if _, err := cdc.AppendState(nil, 30); err == nil {
		t.Error("AppendState accepted a value outside the codec space")
	}
}
