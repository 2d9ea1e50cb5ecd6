package codec

// fieldReference is the division loop Field used before the codec
// kept per-field strides: reduce modulo the space, then divide by every
// lower radix in turn. Field is held equal to it by FuzzField.
func (c *Codec) fieldReference(v uint64, i int) uint64 {
	v %= c.space
	for j := 0; j < i; j++ {
		v /= c.Radix(j)
	}
	return v % c.Radix(i)
}

// unpack decodes every field of v in order, each through Field.
func (c *Codec) unpack(v uint64) []uint64 {
	out := make([]uint64, c.Fields())
	for i := range out {
		out[i] = c.Field(v, i)
	}
	return out
}

// mustNew is New for statically known-good radices; it panics on error.
func mustNew(radices ...uint64) *Codec {
	c, err := New(radices...)
	if err != nil {
		panic(err)
	}
	return c
}
