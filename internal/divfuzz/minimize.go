// Greedy delta-debugging over mutation lists: a divergent genome is reduced
// to a local minimum that preserves its divergence signature, yielding the
// canonical form divergences are deduplicated and exported by.
package divfuzz

import (
	"chainchaos/internal/certmodel"
	"chainchaos/internal/population"
)

// Minimize deletes mutations one at a time, keeping each deletion that
// preserves the genome's verdict vector, and loops until a full pass removes
// nothing. Running to a fixpoint makes the result canonical:
// Minimize(Minimize(g)) == Minimize(g), which the divergence digest relies
// on. The base list and vector evaluation are pure, so minimization is
// deterministic wherever it runs. Trials materialize through the oracle's
// rebuild memo.
func Minimize(pop *population.Population, base []*certmodel.Certificate, g Genome, o *Oracle) Genome {
	want := o.Evaluate(apply(pop, base, g, &o.memo))
	muts := append([]Mut(nil), g.Muts...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(muts); i++ {
			trial := make([]Mut, 0, len(muts)-1)
			trial = append(trial, muts[:i]...)
			trial = append(trial, muts[i+1:]...)
			got := o.Evaluate(apply(pop, base, Genome{Base: g.Base, Muts: trial}, &o.memo))
			if got == want {
				muts = trial
				changed = true
				i--
			}
		}
	}
	return Genome{Base: g.Base, Muts: muts}
}
