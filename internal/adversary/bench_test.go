package adversary

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// BenchmarkMessageRow measures one receiver's row fill per op for every
// built-in strategy, at the shape of the widest fault set the
// repository benchmark probes adversary rows on: figure2 with n = 36,
// f = 7 faults placed by registry.CompareSpec's stride (trial 0), and
// its 275,634,358,272-state space. The round advances after every
// correct receiver has been served, as in the simulator.
func BenchmarkMessageRow(b *testing.B) {
	const n, f, space = 36, 7, 275634358272
	for _, name := range Names() {
		rower := registry()[name].(RowMessenger)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			v := &View{States: make([]alg.State, n), Faulty: make([]bool, n), Space: space, Rng: rng}
			v.SetBaseSeed(1)
			for j := 0; j < f; j++ {
				v.Faulty[j*n/f] = true
			}
			var receivers, senders []int
			for i := range v.States {
				v.States[i] = alg.State(rng.Int63n(space))
				if v.Faulty[i] {
					senders = append(senders, i)
				} else {
					receivers = append(receivers, i)
				}
			}
			row := make([]alg.State, len(senders))
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				r := k % len(receivers)
				if r == 0 {
					v.Round++
				}
				rower.MessageRow(v, senders, receivers[r], row)
			}
		})
	}
}
