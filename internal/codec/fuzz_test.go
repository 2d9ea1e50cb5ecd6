package codec

import "testing"

// FuzzCodecDecode fuzzes the untrusted wire-decode path: arbitrary,
// truncated or corrupted bytes fed to DecodeStateWord must either
// return a loud error or a word the codec can decode into in-range
// fields — and must never panic. In-space words must round-trip
// byte-exactly through AppendStateWord.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint64(64800))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(64800))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, uint64(7)) // one byte short
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 5, 9}, uint64(6))
	f.Fuzz(func(t *testing.T, b []byte, space uint64) {
		v, err := DecodeStateWord(b, space)
		switch {
		case len(b) < stateWordSize:
			if err == nil {
				t.Fatalf("DecodeStateWord accepted %d of %d bytes", len(b), stateWordSize)
			}
		case space == 0:
			if err == nil {
				t.Fatal("DecodeStateWord accepted a zero-sized space")
			}
		case err == nil:
			if v >= space {
				t.Fatalf("DecodeStateWord returned %d outside space %d", v, space)
			}
			// An accepted word re-encodes to the exact bytes it came from.
			enc, encErr := AppendStateWord(nil, v, space)
			if encErr != nil {
				t.Fatalf("re-encoding accepted word %d: %v", v, encErr)
			}
			for i := range enc {
				if enc[i] != b[i] {
					t.Fatalf("round trip changed byte %d: % x -> % x", i, b[:stateWordSize], enc)
				}
			}
			// The codec layer must then unpack it into in-range fields.
			if cdc, cdcErr := New(space); cdcErr == nil {
				for i, x := range cdc.unpack(v) {
					if x >= cdc.Radix(i) {
						t.Fatalf("unpack(%d): field %d = %d out of range", v, i, x)
					}
				}
			}
		}
		// Out-of-space words are the forge case: the error is loud, not a
		// silent reduction, and never a panic (checked implicitly).
	})
}

// FuzzPackUnpack fuzzes the mixed-radix round trip: any in-range tuple
// must survive Pack and Field, and any word — in range or not — must
// decode into in-range fields without panicking.
func FuzzPackUnpack(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(2303), uint64(960), uint64(1), uint64(10))
	f.Add(^uint64(0), uint64(7), uint64(0), uint64(3))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		cdc := mustNew(2304, 961, 2, 11)
		fields := []uint64{a % 2304, b % 961, c % 2, d % 11}
		v, err := cdc.Pack(fields...)
		if err != nil {
			t.Fatalf("Pack(%v): %v", fields, err)
		}
		if v >= cdc.Space() {
			t.Fatalf("packed %d outside space %d", v, cdc.Space())
		}
		out := cdc.unpack(v)
		for i := range fields {
			if out[i] != fields[i] {
				t.Fatalf("round trip %v -> %v", fields, out)
			}
		}
		// Arbitrary (possibly out-of-space) words must decode totally.
		junk := a ^ b<<20 ^ c<<40 ^ d<<55
		for i, x := range cdc.unpack(junk) {
			if x >= cdc.Radix(i) {
				t.Fatalf("unpack(%d): field %d = %d out of range", junk, i, x)
			}
		}
	})
}

// FuzzField holds the stride decode to the division loop it replaced
// (fieldReference) on codecs of one to four fields — radix-1 fields
// and products up to MaxSpace included — and on arbitrary words,
// out-of-space ones such as ^uint64(0) included: the stride table must
// give back the radices and their product, and Field must equal the
// oracle for every field index.
func FuzzField(f *testing.F) {
	f.Add(uint8(4), uint64(24510873600-1), uint64(27), uint64(27), uint64(8), uint64(123456789))
	f.Add(uint8(3), uint64(0), uint64(6), uint64(0), uint64(0), ^uint64(0))
	f.Add(uint8(0), MaxSpace-1, uint64(0), uint64(0), uint64(0), MaxSpace+7)
	f.Add(uint8(1), uint64(1<<31-1), uint64(1<<31-1), uint64(0), uint64(0), ^uint64(0))
	f.Add(uint8(3), uint64(35), uint64(9), uint64(9), uint64(60), uint64(439200))
	f.Fuzz(func(t *testing.T, fields uint8, r0, r1, r2, r3, v uint64) {
		raw := []uint64{r0, r1, r2, r3}[:int(fields%4)+1]
		radices := make([]uint64, len(raw))
		space := uint64(1)
		for k, r := range raw {
			// Each radix lands in [1, MaxSpace/space], so the product
			// never leaves MaxSpace and radix 1 stays reachable.
			radices[k] = r%(MaxSpace/space) + 1
			space *= radices[k]
		}
		c, err := New(radices...)
		if err != nil {
			t.Fatalf("New(%v): %v", radices, err)
		}
		if c.Space() != space || c.Fields() != len(radices) {
			t.Fatalf("New(%v): space %d with %d fields, want %d with %d", radices, c.Space(), c.Fields(), space, len(radices))
		}
		for i, r := range radices {
			if c.Radix(i) != r {
				t.Fatalf("New(%v): Radix(%d) = %d", radices, i, c.Radix(i))
			}
			if got, want := c.Field(v, i), c.fieldReference(v, i); got != want {
				t.Fatalf("radices %v: Field(%d, %d) = %d, reference %d", radices, v, i, got, want)
			}
		}
	})
}
