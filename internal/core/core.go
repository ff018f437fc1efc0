package core

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"

	"repro/internal/fo"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// Repair is an operational repair: a consistent database s(D) for some
// reachable absorbing state s, together with its probability
// P_{D,MΣ}(D') — under the walk-induced mode, Σ π(s) over the absorbing
// states producing it; under the sequence-uniform mode, the fraction of
// complete sequences producing it.
type Repair struct {
	// DB is the repaired database.
	DB *relation.Database
	// P is the repair's probability under the selected semantics mode.
	P *big.Rat
	// Sequences counts the absorbing sequences s with s(D) = DB, saturating
	// at the int limit (display only; SeqCount is exact).
	Sequences int
	// SeqCount is the exact count of absorbing sequences producing DB. The
	// sequence-uniform mode weighs repairs by SeqCount / total sequences.
	SeqCount *big.Int
}

// Semantics is [[D]]_{MΣ} together with bookkeeping about the chain: the
// set of repair/probability pairs, the total success mass (the denominator
// of the conditional probability CP), and leaf statistics.
type Semantics struct {
	// Mode records which distribution over complete sequences the
	// probabilities were computed under.
	Mode SemanticsMode
	// Repairs lists the operational repairs with positive probability, in
	// deterministic (database-key) order.
	Repairs []Repair
	// SuccessP is Σ_{(D',p) ∈ [[D]]} p: the probability that the repairing
	// process succeeds. It is 1 exactly when no failing sequence has
	// positive probability (e.g. for non-failing generators, Prop. 8).
	SuccessP *big.Rat
	// FailP is the probability mass on failing sequences.
	FailP *big.Rat
	// AbsorbingStates counts the reachable absorbing states (chain leaves),
	// saturating at the int limit; TotalSequences is exact.
	AbsorbingStates int
	// FailingStates counts the failing leaves (saturating).
	FailingStates int
	// TotalSequences is the exact number of complete sequences of the
	// chain's support (successful and failing).
	TotalSequences *big.Int
	// FailingSequences is the exact number of failing complete sequences.
	FailingSequences *big.Int
	// SequencesByLength[l] is the exact number of complete sequences of
	// length l (successful and failing); Σ_l SequencesByLength[l] =
	// TotalSequences. Populated only when the exploration ran with
	// markov.ExploreOptions.TrackLengths (nil otherwise). The per-length
	// stratification is what lets sequence-uniform counts factorize across
	// conflict components: complete sequences of a factored instance are
	// exactly the interleavings of per-component complete sequences, and
	// interleavings are counted by binomial convolution over lengths
	// (Factored.TotalSequences).
	SequencesByLength []*big.Int
}

// Compute explores the chain M_Σ(D) exactly and assembles [[D]]_{MΣ}
// under the walk-induced semantics. opt.MaxStates bounds the exploration
// (0 = unlimited). It is shorthand for ComputeMode with WalkInduced.
//
// When the chain is collapsible — the generator declares markov.Markovian
// memorylessness and Σ has no TGDs — the exploration runs on the DAG of
// distinct sub-databases (markov.ExploreDAG), which is exponentially
// smaller than the sequence tree yet yields the identical semantics: same
// repairs, same exact probabilities, same sequence counts. Everything else
// falls back to the sequence-tree walk.
func Compute(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions) (*Semantics, error) {
	return ComputeMode(inst, g, opt, WalkInduced)
}

// ComputeMode is Compute under an explicit semantics mode. Under
// SequenceUniform the chain's support is explored exactly like the
// walk-induced case (the support does not depend on the mode), but every
// repair is weighted by its share of complete sequences instead of its
// walk mass π — the DAG engine reads the weights off the propagated
// big.Int sequence counts, and the tree engine counts leaves directly
// (each tree leaf is one sequence), which doubles as the brute-force
// reference the equivalence suite checks the DAG against.
func ComputeMode(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions, mode SemanticsMode) (*Semantics, error) {
	if markov.Collapsible(inst, g) {
		return ComputeDAGMode(inst, g, opt, mode)
	}
	return ComputeTreeMode(inst, g, opt, mode)
}

// ComputeTree assembles the walk-induced semantics from the sequence-tree
// walk of Definition 5 — the reference engine, correct for every
// generator. Tests and benchmarks call it directly to compare against
// ComputeDAG.
func ComputeTree(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions) (*Semantics, error) {
	return ComputeTreeMode(inst, g, opt, WalkInduced)
}

// ComputeTreeMode is ComputeTree under an explicit semantics mode. With
// SequenceUniform it *is* brute-force sequence enumeration: every leaf of
// the tree is one complete sequence, so uniform probabilities are exact
// leaf-count ratios.
func ComputeTreeMode(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions, mode SemanticsMode) (*Semantics, error) {
	leaves, err := markov.Explore(inst, g, opt)
	if err != nil {
		return nil, err
	}
	type agg struct {
		db   *relation.Database
		key  string // legacy database key, for the reported repair order
		p    prob.Rat
		seqs int
	}
	// Leaves are merged by the packed binary Database.IDKey (cheap, id-order
	// grouping ≡ legacy Key grouping); the human-readable Key is computed
	// once per distinct repair, only to report Repairs in the documented
	// database-key order.
	byDB := map[string]*agg{}
	sem := &Semantics{SuccessP: prob.Zero(), FailP: prob.Zero()}
	for _, leaf := range leaves {
		if opt.TrackLengths {
			l := leaf.State.Len()
			for len(sem.SequencesByLength) < l+1 {
				sem.SequencesByLength = append(sem.SequencesByLength, new(big.Int))
			}
			// Each tree leaf is exactly one complete sequence.
			sem.SequencesByLength[l].Add(sem.SequencesByLength[l], big.NewInt(1))
		}
		sem.AbsorbingStates++
		if !leaf.State.IsSuccessful() {
			sem.FailingStates++
			sem.FailP.Add(sem.FailP, leaf.Pi)
			continue
		}
		sem.SuccessP.Add(sem.SuccessP, leaf.Pi)
		db := leaf.State.Result()
		k := db.IDKey()
		a, ok := byDB[k]
		if !ok {
			a = &agg{db: db.Clone()}
			a.key = a.db.Key()
			byDB[k] = a
		}
		a.p.AddBig(leaf.Pi)
		a.seqs++
	}
	aggs := make([]*agg, 0, len(byDB))
	for _, a := range byDB {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].key < aggs[j].key })
	for _, a := range aggs {
		sem.Repairs = append(sem.Repairs, Repair{
			DB: a.db, P: a.p.Big(), Sequences: a.seqs, SeqCount: big.NewInt(int64(a.seqs)),
		})
	}
	sem.TotalSequences = big.NewInt(int64(len(leaves)))
	sem.FailingSequences = big.NewInt(int64(sem.FailingStates))
	return applyMode(sem, mode), nil
}

// ComputeDAG assembles the walk-induced semantics from the DAG-collapsed
// exploration. It returns markov.ErrNotCollapsible for chains the DAG
// cannot represent (history-dependent generators, TGDs); Compute handles
// the fallback.
//
// The DAG merges absorbing sequences by result database, so each leaf is
// already one repair; the sequence statistics (Repair.Sequences,
// AbsorbingStates, FailingStates) are recovered from the propagated path
// counts and saturate at the int limit when the collapsed tree is larger
// than 2^63 sequences — sizes the tree engine could never enumerate. The
// exact counts survive in Repair.SeqCount / Semantics.TotalSequences.
func ComputeDAG(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions) (*Semantics, error) {
	return ComputeDAGMode(inst, g, opt, WalkInduced)
}

// ComputeDAGMode is ComputeDAG under an explicit semantics mode. The
// sequence-uniform weights reuse the big.Int path counts the exploration
// propagates anyway, so the uniform semantics costs the same as the
// walk-induced one — and stays exact at sizes where the counts exceed
// 2^63 and brute-force enumeration is unthinkable.
func ComputeDAGMode(inst *repair.Instance, g markov.Generator, opt markov.ExploreOptions, mode SemanticsMode) (*Semantics, error) {
	dag, err := markov.ExploreDAG(inst, g, opt)
	if err != nil {
		return nil, err
	}
	sem := &Semantics{}
	absorbing, failing := new(big.Int), new(big.Int)
	var succP, failP prob.Rat
	var repairKeys []string
	for _, leaf := range dag.Leaves {
		absorbing.Add(absorbing, leaf.Sequences)
		if opt.TrackLengths {
			for len(sem.SequencesByLength) < len(leaf.SeqsByLength) {
				sem.SequencesByLength = append(sem.SequencesByLength, new(big.Int))
			}
			for l, cnt := range leaf.SeqsByLength {
				sem.SequencesByLength[l].Add(sem.SequencesByLength[l], cnt)
			}
		}
		if !leaf.State.IsSuccessful() {
			failing.Add(failing, leaf.Sequences)
			failP.AddBig(leaf.Pi)
			continue
		}
		succP.AddBig(leaf.Pi)
		// The DAG's leaves are materialized fresh for this exploration and
		// the dag value never escapes, so the semantics adopts leaf.Pi and
		// leaf.Sequences instead of copying them.
		sem.Repairs = append(sem.Repairs, Repair{
			DB:        leaf.State.Result().Clone(),
			P:         leaf.Pi,
			Sequences: satInt(leaf.Sequences),
			SeqCount:  leaf.Sequences,
		})
		repairKeys = append(repairKeys, leaf.Key)
	}
	sem.SuccessP, sem.FailP = succP.Big(), failP.Big()
	sem.AbsorbingStates = satInt(absorbing)
	sem.FailingStates = satInt(failing)
	sem.TotalSequences = absorbing
	sem.FailingSequences = failing
	// Leaves arrive in level order; repairs are reported in database-key
	// order like the tree engine.
	sort.Sort(&repairsByKey{keys: repairKeys, repairs: sem.Repairs})
	return applyMode(sem, mode), nil
}

// applyMode finalizes the semantics for the requested mode. The engines
// always assemble the walk-induced masses (they fall out of the
// exploration for free); the sequence-uniform mode replaces every
// probability with the corresponding exact sequence-count ratio.
func applyMode(sem *Semantics, mode SemanticsMode) *Semantics {
	sem.Mode = mode
	if mode != SequenceUniform {
		return sem
	}
	total := sem.TotalSequences
	if total.Sign() == 0 {
		// Cannot happen: every chain has at least the shortest complete
		// sequence (the empty one, when D is consistent).
		return sem
	}
	for i := range sem.Repairs {
		sem.Repairs[i].P = new(big.Rat).SetFrac(sem.Repairs[i].SeqCount, total)
	}
	success := new(big.Int).Sub(total, sem.FailingSequences)
	sem.SuccessP = new(big.Rat).SetFrac(success, total)
	sem.FailP = new(big.Rat).SetFrac(sem.FailingSequences, total)
	return sem
}

// repairsByKey sorts repairs by precomputed database key (Database.Key
// rebuilds its encoding on every call, so the comparator must not).
type repairsByKey struct {
	keys    []string
	repairs []Repair
}

func (r *repairsByKey) Len() int           { return len(r.keys) }
func (r *repairsByKey) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r *repairsByKey) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.repairs[i], r.repairs[j] = r.repairs[j], r.repairs[i]
}

// satInt converts a path count to int, saturating at the int limit.
func satInt(x *big.Int) int {
	if x.IsInt64() {
		if n := x.Int64(); n <= math.MaxInt {
			return int(n)
		}
	}
	return math.MaxInt
}

// UniformOverRepairs reweights the semantics so that every distinct repair
// is equally likely, the "equally likely repairs" measure of certainty
// discussed in Section 6 (after Greco and Molinaro). The chain structure is
// kept only to determine which repairs exist.
func (s *Semantics) UniformOverRepairs() *Semantics {
	out := &Semantics{
		SuccessP:        prob.Zero(),
		FailP:           prob.Zero(),
		AbsorbingStates: s.AbsorbingStates,
		FailingStates:   s.FailingStates,
	}
	n := int64(len(s.Repairs))
	if n == 0 {
		return out
	}
	for _, r := range s.Repairs {
		out.Repairs = append(out.Repairs, Repair{DB: r.DB, P: big.NewRat(1, n), Sequences: r.Sequences})
	}
	out.SuccessP = prob.One()
	return out
}

// CP computes the conditional probability CP_{D,MΣ,Q}(t̄) of Section 4:
// the probability mass of repairs answering t̄, normalized by the success
// mass; it is 0 when no operational repair exists.
func (s *Semantics) CP(q *fo.Query, tuple []string) *big.Rat {
	if s.SuccessP.Sign() == 0 {
		return prob.Zero()
	}
	num := prob.Zero()
	for _, r := range s.Repairs {
		if q.Holds(r.DB, tuple) {
			num.Add(num, r.P)
		}
	}
	return num.Quo(num, s.SuccessP)
}

// Answer is a tuple together with its conditional probability.
type Answer struct {
	Tuple []string
	P     *big.Rat
}

// AnswerSet is the operational consistent answers OCA_{MΣ}(D,Q) restricted
// to tuples with positive probability (every tuple not listed has CP 0;
// Definition 7 formally assigns a probability to all of
// dom(B(D,Σ))^{|x̄|}, which is exponentially large and almost everywhere
// zero).
type AnswerSet struct {
	Query   *fo.Query
	Answers []Answer
}

// OCA evaluates the query over every operational repair and returns the
// tuples with positive conditional probability, sorted lexicographically.
func (s *Semantics) OCA(q *fo.Query) *AnswerSet {
	acc := newAnswerMass(q)
	for _, r := range s.Repairs {
		acc.add(r.DB, r.P)
	}
	return acc.answers(s.SuccessP)
}

// answerMass accumulates the unnormalized probability mass of each answer
// tuple over a weighted set of repairs — the shared core of Semantics.OCA
// and the enumerated Factored.OCA.
type answerMass struct {
	q   *fo.Query
	num map[string]*tupleMass
}

// tupleMass is one tuple's numerator. Numerators accumulate on the
// small-rational fast path: one AddBig per (repair, answer) pair is the hot
// loop of exact query answering.
type tupleMass struct {
	tuple []string
	p     prob.Rat
}

func newAnswerMass(q *fo.Query) *answerMass {
	return &answerMass{q: q, num: map[string]*tupleMass{}}
}

// add credits every answer of the query over db with the repair mass p.
func (m *answerMass) add(db *relation.Database, p *big.Rat) {
	for _, tuple := range m.q.Answers(db) {
		k := fo.TupleKey(tuple)
		a, ok := m.num[k]
		if !ok {
			a = &tupleMass{tuple: tuple}
			m.num[k] = a
		}
		a.p.AddBig(p)
	}
}

// answers normalizes the masses by the success mass den (every probability
// is 0 when den is), drops the tuples with probability 0, and sorts.
func (m *answerMass) answers(den *big.Rat) *AnswerSet {
	out := &AnswerSet{Query: m.q}
	for _, a := range m.num {
		p := a.p.Big()
		if den.Sign() != 0 {
			p.Quo(p, den)
		} else {
			p = prob.Zero()
		}
		if p.Sign() > 0 {
			out.Answers = append(out.Answers, Answer{Tuple: a.tuple, P: p})
		}
	}
	sortAnswers(out)
	return out
}

// sortAnswers orders an answer set lexicographically by tuple. It sorts by
// the tuples themselves: TupleKey is a process-local interned encoding
// with no stable order.
func sortAnswers(as *AnswerSet) {
	sort.Slice(as.Answers, func(i, j int) bool {
		return slices.Compare(as.Answers[i].Tuple, as.Answers[j].Tuple) < 0
	})
}

// Certain returns the tuples with CP = 1: answers that hold in every
// operational repair. Under the uniform chain and a non-failing setting
// these coincide with the certain answers over the reachable repairs.
func (s *Semantics) Certain(q *fo.Query) [][]string {
	return certainTuples(s.OCA(q))
}

// certainTuples keeps the tuples of an answer set with probability
// exactly 1, in answer order.
func certainTuples(as *AnswerSet) [][]string {
	var out [][]string
	for _, a := range as.Answers {
		if prob.IsOne(a.P) {
			out = append(out, a.Tuple)
		}
	}
	return out
}

// TPC decides the tuple probability checking problem of Section 5:
// is CP_{D,MΣ,Q}(t̄) > 0?
func (s *Semantics) TPC(q *fo.Query, tuple []string) bool {
	return s.CP(q, tuple).Sign() > 0
}

// Lookup returns the answer for a tuple in the answer set (zero probability
// when absent).
func (as *AnswerSet) Lookup(tuple []string) *big.Rat {
	k := fo.TupleKey(tuple)
	for _, a := range as.Answers {
		if fo.TupleKey(a.Tuple) == k {
			return a.P
		}
	}
	return prob.Zero()
}

// String renders the answer set one tuple per line with exact and decimal
// probabilities.
func (as *AnswerSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OCA for %s:\n", as.Query)
	if len(as.Answers) == 0 {
		b.WriteString("  (no tuple has positive probability)\n")
		return b.String()
	}
	for _, a := range as.Answers {
		b.WriteString("  ")
		b.WriteString(fo.TupleString(a.Tuple))
		b.WriteString(" : ")
		b.WriteString(prob.Format(a.P))
		b.WriteByte('\n')
	}
	return b.String()
}
