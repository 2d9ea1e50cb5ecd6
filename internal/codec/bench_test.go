package codec

import (
	"math/rand"
	"testing"
)

// ecountLevels are the codecs of the three nested levels of
// ecount.New(64, 7, 8), outermost first: field 0 of each level holds a
// state of the next one (fields: block state, two pointers, consensus
// registers, output bit).
var ecountLevels = []*Codec{
	mustNew(24510873600, 28, 28, 9, 2),
	mustNew(439200, 16, 16, 109, 2),
	mustNew(36, 10, 10, 61, 2),
}

// BenchmarkField decodes every field of every nested level of an
// ecount state word, the way a nested Step reads a received state.
func BenchmarkField(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 256)
	for i := range words {
		words[i] = uint64(rng.Int63n(int64(ecountLevels[0].Space())))
	}
	b.ResetTimer()
	var sink uint64
	for n := 0; n < b.N; n++ {
		v := words[n%len(words)]
		for _, c := range ecountLevels {
			for i := 1; i < c.Fields(); i++ {
				sink += c.Field(v, i)
			}
			v = c.Field(v, 0)
		}
	}
	benchSink = sink
}

var benchSink uint64
