package generators

import (
	"fmt"
	"math/big"

	"repro/internal/markov"
	"repro/internal/ops"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// Trust is the data-integration generator of Example 5. Every fact α
// carries a level of trust tr(α) ∈ [0,1] reflecting the reliability of the
// source it came from. For a violating pair {α,β} (a violation whose body
// involves exactly two distinct facts, e.g. a key violation), with relative
// trusts p = tr_{α|β} = tr(α)/(tr(α)+tr(β)) and q = tr_{β|α}, the weights
// of the three repairing deletions are
//
//	w(−α)     = q·(1 − p·q)   (trust β but not both)
//	w(−β)     = p·(1 − p·q)   (trust α but not both)
//	w(−{α,β}) = (1−p)·(1−q)   (trust neither)
//
// which sum to 1 for each pair. The transition probability of a deletion
// −F is the average over all currently violating pairs of their weight for
// −F. With tr(α) = tr(β) = 1/2 this yields the introduction's
// 0.375 / 0.375 / 0.25 split.
type Trust struct {
	levels  map[relation.Fact]*big.Rat
	deflt   *big.Rat
	defined bool
}

// NewTrust creates a trust generator with the given default level for
// facts that have no explicit assignment.
func NewTrust(defaultLevel *big.Rat) *Trust {
	return &Trust{
		levels:  map[relation.Fact]*big.Rat{},
		deflt:   new(big.Rat).Set(defaultLevel),
		defined: true,
	}
}

// Set assigns a trust level in [0,1] to a fact.
func (t *Trust) Set(f relation.Fact, level *big.Rat) error {
	if !prob.InUnit(level) {
		return fmt.Errorf("generators: trust level %s for %s outside [0,1]", level.RatString(), f)
	}
	t.levels[f] = new(big.Rat).Set(level)
	return nil
}

// Level returns the trust of a fact (the default when unassigned).
func (t *Trust) Level(f relation.Fact) *big.Rat {
	if l, ok := t.levels[f]; ok {
		return l
	}
	return t.deflt
}

// Name implements markov.Generator.
func (t *Trust) Name() string { return "trust" }

// LocalWeights asserts that the trust weights of a conflicting pair depend
// only on the pair's own trust levels, enabling the factorized exact
// semantics of core.ComputeFactored. (The |V| normalizer scales all
// operations of a step equally and cancels in the repair distribution.)
//
// Trust deliberately does NOT implement core.StructuralGenerator: its
// weights depend on the identity of the facts (their assigned trust
// levels), so renaming constants changes the distribution and two
// isomorphic components need not share semantics. ComputeFactored
// therefore bypasses the structural cache for trust chains.
func (t *Trust) LocalWeights() bool { return true }

// Memoryless implements markov.Markovian: the weights are computed from the
// violating pairs of the state's current database and the (fixed) trust
// levels, so equal databases transition identically and the chain collapses
// to a DAG.
func (t *Trust) Memoryless() bool { return true }

// Transitions implements markov.Generator.
func (t *Trust) Transitions(s *repair.State, exts []ops.Op) ([]*big.Rat, error) {
	if !t.defined {
		return nil, fmt.Errorf("generators: Trust must be built with NewTrust")
	}
	// V_Σ(s(D)): the set of violating pairs {α,β}, deduplicated (the two
	// EGD homomorphisms y/z and z/y yield the same pair). The set does not
	// depend on iteration order, so it is built in id order; only the error
	// path walks the key order, to name the same offender every time.
	pairKeys := map[[2]relation.Fact]struct{}{}
	for _, v := range s.Violations().ByID() {
		if body := v.BodyFacts(); len(body) == 2 {
			pairKeys[[2]relation.Fact{body[0], body[1]}] = struct{}{}
			continue
		}
		for _, w := range s.Violations().All() {
			if n := len(w.BodyFacts()); n != 2 {
				return nil, fmt.Errorf(
					"generators: trust generator requires pairwise conflicts; violation %s involves %d facts",
					w.Key(), n)
			}
		}
	}
	if len(pairKeys) == 0 {
		return nil, fmt.Errorf("generators: no violating pairs at non-complete state %q", s)
	}
	nPairs := new(big.Rat).SetInt64(int64(len(pairKeys)))

	out := make([]*big.Rat, len(exts))
	for i, op := range exts {
		if !op.IsDelete() || op.Size() > 2 {
			out[i] = prob.Zero()
			continue
		}
		total := new(big.Rat)
		for pair := range pairKeys {
			w, err := t.pairWeight(pair[0], pair[1], op)
			if err != nil {
				return nil, err
			}
			total.Add(total, w)
		}
		out[i] = total.Quo(total, nPairs)
	}
	return out, nil
}

// pairWeight returns w_{α,β}(−F): zero unless F is exactly {α}, {β}, or
// {α,β}.
func (t *Trust) pairWeight(alpha, beta relation.Fact, op ops.Op) (*big.Rat, error) {
	fs := op.Facts()
	isAlpha := len(fs) == 1 && fs[0].Equal(alpha)
	isBeta := len(fs) == 1 && fs[0].Equal(beta)
	isPair := len(fs) == 2 &&
		((fs[0].Equal(alpha) && fs[1].Equal(beta)) || (fs[0].Equal(beta) && fs[1].Equal(alpha)))
	if !isAlpha && !isBeta && !isPair {
		return prob.Zero(), nil
	}

	trA, trB := t.Level(alpha), t.Level(beta)
	denom := new(big.Rat).Add(trA, trB)
	if denom.Sign() == 0 {
		return nil, fmt.Errorf("generators: facts %s and %s both have trust 0; relative trust undefined", alpha, beta)
	}
	p := new(big.Rat).Quo(trA, denom) // tr_{α|β}
	q := new(big.Rat).Quo(trB, denom) // tr_{β|α}
	pq := new(big.Rat).Mul(p, q)
	oneMinusPQ := new(big.Rat).Sub(prob.One(), pq)

	switch {
	case isAlpha:
		return new(big.Rat).Mul(q, oneMinusPQ), nil
	case isBeta:
		return new(big.Rat).Mul(p, oneMinusPQ), nil
	default:
		oneMinusP := new(big.Rat).Sub(prob.One(), p)
		oneMinusQ := new(big.Rat).Sub(prob.One(), q)
		return new(big.Rat).Mul(oneMinusP, oneMinusQ), nil
	}
}

var (
	_ markov.Generator = (*Trust)(nil)
	_ markov.Markovian = (*Trust)(nil)
)
