// Package codec packs structured node states into dense mixed-radix
// integers.
//
// Every algorithm in this repository represents its per-node state as a
// single value in [0, |X|) so that (a) the space complexity S(A) =
// ceil(log2 |X|) of the paper is directly measurable, and (b) a Byzantine
// adversary can inject *any* element of the state space X, not merely
// states that the honest transition function can produce. A Codec maps
// between the dense representation and a tuple of bounded fields.
package codec

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxSpace is the largest admissible state-space size. Constructions whose
// state space would exceed this are rejected at build time: they cannot be
// simulated faithfully on 64-bit words (and are far beyond laptop scale
// anyway).
const MaxSpace = uint64(1) << 62

// ErrSpaceTooLarge is returned when the product of field radices exceeds
// MaxSpace.
var ErrSpaceTooLarge = errors.New("codec: state space exceeds 2^62")

// Codec converts between a dense state value and a tuple of fields, where
// field i ranges over [0, radix[i]). Field 0 is the least significant.
// The zero value is unusable; construct with New.
type Codec struct {
	// strides[i] is the place value of field i in the dense word, the
	// product of the radices below it; strides[Fields()] is Space().
	// Field i of any word v is v mod strides[i+1] div strides[i], and
	// radix i is strides[i+1] / strides[i]. Every stride divides the
	// space, so out-of-space words need no separate reduction.
	strides []uint64
	space   uint64
}

// New builds a Codec for the given field radices. Every radix must be at
// least 1 (a radix-1 field carries no information but is permitted so that
// degenerate parameters need no special-casing).
func New(radices ...uint64) (*Codec, error) {
	if len(radices) == 0 {
		return nil, errors.New("codec: no fields")
	}
	strides := make([]uint64, len(radices)+1)
	strides[0] = 1
	for i, r := range radices {
		if r == 0 {
			return nil, fmt.Errorf("codec: field %d has radix 0", i)
		}
		hi, lo := bits.Mul64(strides[i], r)
		if hi != 0 || lo > MaxSpace {
			return nil, fmt.Errorf("%w (fields %v)", ErrSpaceTooLarge, radices)
		}
		strides[i+1] = lo
	}
	return &Codec{strides: strides, space: strides[len(radices)]}, nil
}

// Space returns |X|, the number of distinct encodable states.
func (c *Codec) Space() uint64 { return c.space }

// Fields returns the number of fields.
func (c *Codec) Fields() int { return len(c.strides) - 1 }

// Radix returns the radix of field i.
func (c *Codec) Radix(i int) uint64 { return c.strides[i+1] / c.strides[i] }

// Pack encodes the given field values. It returns an error if the number
// of fields is wrong or any field is out of range; honest code never hits
// these, but the adversary API is easier to audit when Pack is total.
func (c *Codec) Pack(fields ...uint64) (uint64, error) {
	if len(fields) != c.Fields() {
		return 0, fmt.Errorf("codec: got %d fields, want %d", len(fields), c.Fields())
	}
	var v uint64
	for i := len(fields) - 1; i >= 0; i-- {
		// fields[i] < radix i exactly when its place value lands below
		// the next stride.
		hi, lo := bits.Mul64(fields[i], c.strides[i])
		if hi != 0 || lo >= c.strides[i+1] {
			return 0, fmt.Errorf("codec: field %d value %d out of range [0,%d)", i, fields[i], c.Radix(i))
		}
		v += lo
	}
	return v, nil
}

// MustPack is Pack for values the caller guarantees are in range.
func (c *Codec) MustPack(fields ...uint64) uint64 {
	v, err := c.Pack(fields...)
	if err != nil {
		panic(err)
	}
	return v
}

// Field extracts a single field from the dense value without allocating.
// Values v >= Space() — which only an adversary can produce when a
// construction layers codecs — decode as v mod Space(), so that decoding
// is total.
func (c *Codec) Field(v uint64, i int) uint64 {
	return v % c.strides[i+1] / c.strides[i]
}

// stateWordSize is the wire size of one encoded state word: the dense
// representation travels as a fixed-width 8-byte big-endian field so
// that frames have a static layout and truncation is detectable by
// length alone.
const stateWordSize = 8

// errShortStateWord is returned by DecodeStateWord for inputs shorter
// than a full state word — a truncated frame must fail loudly, never be
// zero-padded into a valid-looking state.
var errShortStateWord = errors.New("codec: truncated state word")

// AppendStateWord appends the wire encoding of state v drawn from a
// space of the given size. Encoding is total only for in-space values:
// honest senders never hold an out-of-space word, so an attempt to
// encode one is a program error reported loudly rather than reduced
// silently.
func AppendStateWord(dst []byte, v, space uint64) ([]byte, error) {
	if space == 0 {
		return nil, errors.New("codec: zero-sized space")
	}
	if v >= space {
		return nil, fmt.Errorf("codec: state %d outside space %d", v, space)
	}
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v),
	), nil
}

// DecodeStateWord decodes the wire form of one state word and validates
// it against the state space. The input is untrusted — the live
// transport hands this function bytes that may have been truncated,
// bit-flipped or wholly forged — so every failure mode is an error,
// never a panic and never a silently reduced value: a receiver that
// wants the adversarial mod-space reduction applies it explicitly via
// (*Codec).Field after deciding the frame is authentic.
func DecodeStateWord(b []byte, space uint64) (uint64, error) {
	if len(b) < stateWordSize {
		return 0, fmt.Errorf("%w: got %d of %d bytes", errShortStateWord, len(b), stateWordSize)
	}
	if space == 0 {
		return 0, errors.New("codec: zero-sized space")
	}
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	if v >= space {
		return 0, fmt.Errorf("codec: decoded state %d outside space %d", v, space)
	}
	return v, nil
}

// SpaceBits returns ceil(log2 space): the number of bits needed to store
// one state drawn from a space of the given size.
func SpaceBits(space uint64) int {
	if space <= 1 {
		return 0
	}
	return bits.Len64(space - 1)
}

// MulSpaces multiplies state-space sizes, guarding against overflow of
// MaxSpace.
func MulSpaces(spaces ...uint64) (uint64, error) {
	prod := uint64(1)
	for _, s := range spaces {
		if s == 0 {
			return 0, errors.New("codec: zero-sized space")
		}
		if s > MaxSpace/prod {
			return 0, ErrSpaceTooLarge
		}
		prod *= s
	}
	return prod, nil
}

// PowSpace returns base^exp or an error if it exceeds MaxSpace. It is used
// by planners that need (2m)^k factors.
func PowSpace(base uint64, exp int) (uint64, error) {
	if base == 0 {
		return 0, errors.New("codec: zero base")
	}
	result := uint64(1)
	for i := 0; i < exp; i++ {
		if result > MaxSpace/base {
			return 0, ErrSpaceTooLarge
		}
		result *= base
	}
	return result, nil
}
