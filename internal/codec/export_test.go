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

// withFieldReference is WithField's former loop, which rebuilt field
// i's place value from the radices on every call; WithField is held
// equal to it by FuzzField.
func (c *Codec) withFieldReference(v uint64, i int, x uint64) uint64 {
	v %= c.space
	lo := uint64(1)
	for j := 0; j < i; j++ {
		lo *= c.Radix(j)
	}
	r := c.Radix(i)
	old := v / lo % r
	return v + (x%r-old)*lo
}

// mustNew is New for statically known-good radices; it panics on error.
func mustNew(radices ...uint64) *Codec {
	c, err := New(radices...)
	if err != nil {
		panic(err)
	}
	return c
}
