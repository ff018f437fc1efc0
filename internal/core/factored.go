package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/markov"
	"repro/internal/prob"
	"repro/internal/relation"
	"repro/internal/repair"
)

// This file implements the "localization of repairs" optimization sketched
// in Section 6 of the paper (after Eiter et al.): for EGD and denial
// constraints — where every chain is deletion-only and violations never
// span conflict components — the repairing process factorizes: the
// connected components of the conflict hypergraph repair independently and
// the repair distribution of the whole database is the product of the
// per-component distributions over the untouched facts.
//
// Factorization additionally requires the chain generator to be *local*:
// the relative probabilities it assigns to operations fixing one component
// must not depend on the state of other components. The uniform generator
// and the trust generator are local (their weights are per-conflict
// constants); the preference generator of Example 4 is not (its weights
// count facts across the whole database), and using it here would silently
// change the semantics, so ComputeFactored requires the caller to assert
// locality via the Local marker interface.
//
// On top of locality the engine layers two compounding optimizations:
//
//   - Parallelism: components repair independently, so their exact
//     explorations run on a worker pool (opt.Workers goroutines, inner DAG
//     workers capped to one while several components are in flight).
//     Components are formed and merged in deterministic order, so the
//     result is bit-identical for every worker count.
//
//   - Structural memoization: when the generator's weights are invariant
//     under renaming of constants (StructuralGenerator) and Σ mentions no
//     constants, two components that are isomorphic up to constant
//     renaming have isomorphic local semantics. Each component is
//     canonicalized by a first-occurrence renaming over its sorted fact
//     list; the packed canonical fact ids key a semantics cache, so N
//     isomorphic islands cost one DAG exploration plus N cheap renamings
//     (materialized lazily — atomic-query marginals read the shared
//     canonical semantics directly and never materialize at all).

// LocalGenerator marks generators whose per-component transition weights
// are independent of the rest of the database, licensing factorization.
type LocalGenerator interface {
	markov.Generator
	// LocalWeights documents (and asserts) locality; implementations
	// simply return true.
	LocalWeights() bool
}

// StructuralGenerator marks local generators whose weights are invariant
// under injective renaming of constants: renaming the constants of a
// component permutes its repairs without changing any probability. Uniform
// and UniformDeletions qualify (their weights count extensions, never
// inspect constants); Trust and Preference do not (their weights depend on
// the identity of the facts involved) and must not implement the marker.
// Structural generators opt a ComputeFactored call into the
// isomorphism-keyed semantics cache, provided Σ mentions no constants
// (a constraint constant would survive renaming and break invariance).
type StructuralGenerator interface {
	LocalGenerator
	// StructuralWeights documents (and asserts) renaming-invariance;
	// implementations simply return true.
	StructuralWeights() bool
}

// ErrNotFactorable is returned when the instance or generator does not
// support component-wise factorization.
var ErrNotFactorable = errors.New("core: instance/generator does not factorize across conflict components")

// ErrEnumerationBudget is returned by CP and OCA when the product of
// per-component repair counts exceeds maxEnumeratedRepairs. Atomic queries
// never hit it (they route through FactProbability); for the rest,
// EstimateCP and CPOrEstimate trade exactness for sampling.
var ErrEnumerationBudget = errors.New("core: factored repair enumeration exceeds the budget")

// Component is one conflict component together with its exact local
// semantics. Components obtained from the structural cache hold a shared
// canonical semantics and materialize their renamed copy lazily on first
// Semantics call; fact marginals read the canonical side directly.
type Component struct {
	// Facts are the component's facts, sorted (each fact belongs to
	// exactly one component).
	Facts []relation.Fact

	// canon is the semantics of the canonicalized component, shared by
	// every component with the same cache key; nil when the component was
	// computed directly (cache disabled, non-structural generator).
	canon *Semantics
	// canonFacts and inv carry the canonicalization computed when the
	// component was built (canonFacts[i] is the image of Facts[i], inv the
	// canonical→original constant table), so per-query marginals and the
	// lazy Semantics materialization never re-run canonicalize. Set only
	// alongside canon.
	canonFacts []relation.Fact
	inv        []intern.Sym

	semOnce sync.Once
	sem     *Semantics

	// weights caches the local repair probabilities in repair order for
	// SampleRepair, which draws from them on every call.
	wOnce   sync.Once
	weights []*big.Rat
}

// Semantics returns the component's exact local semantics, materializing
// the constant-renamed copy of the shared canonical semantics on first use
// for cache-served components. The result is a pure function of
// Component.Facts — independent of worker scheduling and of which
// isomorphic component populated the cache.
func (c *Component) Semantics() *Semantics {
	c.semOnce.Do(func() {
		if c.sem == nil {
			ren := make(map[intern.Sym]intern.Sym, len(c.inv))
			for i, orig := range c.inv {
				ren[canonSym(i)] = orig
			}
			c.sem = renameSemantics(c.canon, ren)
		}
	})
	return c.sem
}

// repairWeights returns the cached probability weights of the local
// repairs, aligned with Semantics().Repairs.
func (c *Component) repairWeights() []*big.Rat {
	c.wOnce.Do(func() {
		repairs := c.Semantics().Repairs
		c.weights = make([]*big.Rat, len(repairs))
		for i, r := range repairs {
			c.weights[i] = r.P
		}
	})
	return c.weights
}

// NumRepairs returns the number of distinct local repairs without
// materializing cached semantics.
func (c *Component) NumRepairs() int {
	if c.canon != nil {
		return len(c.canon.Repairs)
	}
	return len(c.sem.Repairs)
}

// marginal returns the probability that the fact (which must belong to the
// component) survives in a local repair, conditioned on success. For
// cache-served components the fact is mapped through the canonical
// renaming and the marginal is read off the shared canonical semantics —
// renaming is an isomorphism of the local chain, so the values coincide.
func (c *Component) marginal(fact relation.Fact) *big.Rat {
	sem := c.sem
	if c.canon != nil {
		for i, cf := range c.Facts {
			if cf == fact {
				fact = c.canonFacts[i]
				break
			}
		}
		sem = c.canon
	}
	// Repair masses are summed with the small-rational fast path; the
	// canonical big.Rat is materialized once for the final division.
	var acc prob.Rat
	for _, r := range sem.Repairs {
		if r.DB.Contains(fact) {
			acc.AddBig(r.P)
		}
	}
	p := acc.Big()
	if sem.SuccessP.Sign() != 0 {
		p.Quo(p, sem.SuccessP)
	}
	return p
}

// Factored is the factorized exact semantics: the untouched core plus one
// independent Semantics per conflict component. The full repair
// distribution is the product distribution.
type Factored struct {
	initial *relation.Database
	sigma   *constraint.Set
	gen     markov.Generator
	part    *abc.Partition
	// Untouched holds the facts in no violation; they survive every
	// deletion-only repair.
	Untouched *relation.Database
	// Components lists the conflict components in deterministic order
	// (sorted by smallest fact), aligned with Partition().Islands().
	Components []*Component
	// CacheHits and CacheMisses count the structural-cache outcomes among
	// the components this call explored: misses are the distinct canonical
	// component shapes explored for the first time (in this call, for a
	// persistent FactoredOptions.Cache), hits the components served by
	// renaming an already explored shape. Both are zero when the cache did
	// not apply (non-structural generator, constants in Σ, or
	// FactoredOptions.NoCache).
	CacheHits, CacheMisses int
	// Reused counts the components a resident incremental builder carried
	// over verbatim from its previous publication (AssembleFactored) —
	// their conflict component was not touched by the delta, so the
	// resident semantics is reused without any cache traffic. Zero for
	// from-scratch builds; when the structural cache applies, Reused +
	// CacheHits + CacheMisses == len(Components).
	Reused int
}

// Partition returns the resident conflict partition the semantics is
// aligned with; Components[i] covers Partition().Islands()[i].
func (f *Factored) Partition() *abc.Partition { return f.part }

// SemanticsCache is a persistent structural semantics cache: canonical
// component shapes mapped to their explored local semantics. A zero of it
// is created per call when FactoredOptions.Cache is nil; a long-lived
// server passes one explicitly so isomorphic components pay a single DAG
// exploration across deltas, not per build. A cache is valid only for a
// fixed (Σ, generator, exploration options) configuration — entries are
// keyed by component shape alone — and is safe for concurrent use.
type SemanticsCache struct {
	mu      sync.Mutex
	calls   uint64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	call uint64 // the cache call that created the entry, for hit accounting
	sem  *Semantics
	err  error
}

// NewSemanticsCache returns an empty cache.
func NewSemanticsCache() *SemanticsCache {
	return &SemanticsCache{entries: map[string]*cacheEntry{}}
}

// Len reports the number of distinct component shapes cached.
func (c *SemanticsCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// begin opens an accounting scope: entries created under the returned call
// number are this build's misses, everything older a hit.
func (c *SemanticsCache) begin() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	return c.calls
}

func (c *SemanticsCache) entry(key string, call uint64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{call: call}
		c.entries[key] = e
	}
	return e
}

// FactoredOptions tunes ComputeFactoredOpts and ComputeFactoredOn beyond the
// exploration options.
type FactoredOptions struct {
	// NoCache disables the structural semantics cache even for structural
	// generators; every component is explored directly. Benchmarks use it
	// to isolate the cache's contribution.
	NoCache bool
	// Cache, when set, is the persistent structural cache to consult and
	// populate instead of a per-call one, keeping isomorphic shapes warm
	// across builds. Ignored under NoCache or a non-structural generator.
	Cache *SemanticsCache
}

// FactDelta is one applied database change: a fact inserted or deleted.
type FactDelta struct {
	Fact   relation.Fact
	Insert bool
}

// ComputeFactored builds the factorized semantics. It requires a
// constraint set without TGDs (so chains are deletion-only and components
// never interact) and a LocalGenerator. Per-component explorations run on
// opt.Workers goroutines (≤ 0 means GOMAXPROCS), and structural generators
// share one exploration across isomorphic components; the result is
// bit-identical for every worker count and cache state.
func ComputeFactored(inst *repair.Instance, g LocalGenerator, opt markov.ExploreOptions) (*Factored, error) {
	return ComputeFactoredOpts(inst, g, opt, FactoredOptions{})
}

// ComputeFactoredOpts is ComputeFactored with explicit factored options.
func ComputeFactoredOpts(inst *repair.Instance, g LocalGenerator, opt markov.ExploreOptions, fopt FactoredOptions) (*Factored, error) {
	// The root state caches V(D,Σ); reuse it instead of re-running the
	// homomorphism search, and form components with the id-keyed
	// union-find of the abc package.
	part := abc.NewPartition(inst.Root().Violations())
	return ComputeFactoredOn(inst.Initial(), inst.Sigma(), g, opt, fopt, part)
}

// ComputeFactoredOn builds the factorized semantics of db over part, its
// conflict partition (abc.NewPartition of V(db,Σ)). Every island is
// explored — against fopt.Cache when one is passed — and afterwards
// carries its Component as Payload, so a resident builder can keep the
// partition and re-explore only the islands later deltas touch (see
// AssembleFactored). The result is a pure function of (db, Σ, generator,
// options), bit-identical to ComputeFactored on db for every worker count
// and cache state.
func ComputeFactoredOn(db *relation.Database, sigma *constraint.Set, g LocalGenerator, opt markov.ExploreOptions, fopt FactoredOptions, part *abc.Partition) (*Factored, error) {
	for _, c := range sigma.All() {
		if c.Kind() == constraint.TGD {
			return nil, fmt.Errorf("%w: TGD %s allows insertions that may couple components", ErrNotFactorable, c)
		}
	}
	if !g.LocalWeights() {
		return nil, fmt.Errorf("%w: generator %s is not local", ErrNotFactorable, g.Name())
	}

	// Cap the inner DAG workers while several components are in flight:
	// the component pool already saturates the CPUs, and the DAG result is
	// bit-identical for every inner worker count.
	islands := part.Islands()
	inner := opt
	if len(islands) > 1 {
		inner.Workers = 1
	}
	scope := NewBuildScope(sigma, g, inner, fopt)
	explored := make([]Explored, len(islands))
	errs := make([]error, len(islands))
	work := func(i int) {
		e, err := scope.Explore(islands[i])
		if err != nil {
			errs[i] = err
			return
		}
		explored[i] = e
		// Islands are private to this build until the caller publishes, so
		// the write is unsynchronized but unshared.
		islands[i].Payload = e.Comp
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(islands) {
		workers = len(islands)
	}
	if workers <= 1 {
		for i := range islands {
			work(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					work(i)
				}
			}()
		}
		for i := range islands {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	// Errors are reported in deterministic component order, independent of
	// which worker failed first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The untouched core is assembled into a fresh database (near-linear
	// with copy-on-write auto-sealing) rather than cloning db and deleting
	// every conflicted fact, which is quadratic at scale.
	untouched := relation.NewDatabase()
	for _, f := range db.Facts() {
		if part.IslandOf(f) == nil {
			untouched.Insert(f)
		}
	}
	untouched.Seal()
	// Deterministic accounting regardless of worker scheduling: explored is
	// in island order, so the first component of each shape is the miss
	// candidate and every other one a hit.
	hits, misses := scope.Accounting(explored)
	return AssembleFactored(db, sigma, g, part, untouched, 0, hits, misses)
}

// computeComponent explores one component in isolation. vios, when
// non-nil, is the component's violation set V(facts,Σ), seeded into the
// instance so the exploration skips the from-scratch homomorphism search —
// the island that induced the component already carries exactly those
// violations.
func computeComponent(sigma *constraint.Set, g markov.Generator, opt markov.ExploreOptions, facts []relation.Fact, vios *constraint.Violations) (*Semantics, error) {
	sub := relation.FromFacts(facts...)
	subInst, err := repair.NewInstance(sub, sigma)
	if err != nil {
		return nil, err
	}
	if vios != nil {
		subInst.SeedRootViolations(vios)
	}
	return Compute(subInst, g, opt)
}

// renameViolations maps an island's violations into the canonical constant
// space of its cache key. On the structural path Σ mentions no constants
// and the first-occurrence renaming is injective, so each image is a
// violation of the canonical instance and together they are exactly
// V(canon,Σ): every isomorphic island renames to the identical set, making
// the seed independent of which component populates the cache entry.
func renameViolations(vios []constraint.Violation, ren map[intern.Sym]intern.Sym) *constraint.Violations {
	out := make([]constraint.Violation, len(vios))
	for i, v := range vios {
		h := make(logic.Subst, len(v.H))
		for x, a := range v.H {
			if c, ok := ren[a]; ok {
				a = c
			}
			h[x] = a
		}
		out[i] = constraint.NewViolation(v.Constraint, h)
	}
	return constraint.ViolationsOf(out)
}

// canonSyms is the process-wide table of canonical constants ⟨0⟩, ⟨1⟩, …
// substituted for a component's constants in first-occurrence order.
var (
	canonMu   sync.Mutex
	canonSyms []intern.Sym
)

func canonSym(i int) intern.Sym {
	canonMu.Lock()
	for len(canonSyms) <= i {
		canonSyms = append(canonSyms, intern.S(fmt.Sprintf("⟨%d⟩", len(canonSyms))))
	}
	s := canonSyms[i]
	canonMu.Unlock()
	return s
}

// canonicalize renames the constants of a sorted fact list to canonical
// constants in first-occurrence order. It returns the canonical facts
// (aligned by index with the input), the packed cache key (the canonical
// fact ids — equal keys imply the fact lists are isomorphic up to constant
// renaming, since both first-occurrence renamings are injective and
// compose into an isomorphism), the inverse renaming (canonical index →
// original constant), and the forward renaming map (original constant →
// canonical constant).
func canonicalize(facts []relation.Fact) (canon []relation.Fact, key string, inv []intern.Sym, ren map[intern.Sym]intern.Sym) {
	ren = map[intern.Sym]intern.Sym{}
	canon = make([]relation.Fact, len(facts))
	ids := make([]uint32, len(facts))
	for i, f := range facts {
		orig := f.Args()
		args := make([]intern.Sym, len(orig))
		for j, a := range orig {
			c, ok := ren[a]
			if !ok {
				c = canonSym(len(inv))
				ren[a] = c
				inv = append(inv, a)
			}
			args[j] = c
		}
		cf := relation.FactOf(f.Pred(), args)
		canon[i] = cf
		ids[i] = cf.ID()
	}
	// Pack with the shared id-key encoding (relation.AppendIDKey), over the
	// canonical ids in input (sorted-fact) order.
	key = string(relation.AppendIDKey(make([]byte, 0, 4*len(ids)), ids))
	return canon, key, inv, ren
}

// renameSemantics deep-copies a semantics with every repair fact's
// constants mapped through ren. Probabilities, sequence counts, and
// per-length counts are invariant under the renaming; repairs are re-sorted
// by the renamed database keys so the copy is in canonical repair order.
func renameSemantics(sem *Semantics, ren map[intern.Sym]intern.Sym) *Semantics {
	out := &Semantics{
		Mode:             sem.Mode,
		SuccessP:         new(big.Rat).Set(sem.SuccessP),
		FailP:            new(big.Rat).Set(sem.FailP),
		AbsorbingStates:  sem.AbsorbingStates,
		FailingStates:    sem.FailingStates,
		TotalSequences:   new(big.Int).Set(sem.TotalSequences),
		FailingSequences: new(big.Int).Set(sem.FailingSequences),
	}
	if sem.SequencesByLength != nil {
		out.SequencesByLength = make([]*big.Int, len(sem.SequencesByLength))
		for i, cnt := range sem.SequencesByLength {
			out.SequencesByLength[i] = new(big.Int).Set(cnt)
		}
	}
	out.Repairs = make([]Repair, len(sem.Repairs))
	keys := make([]string, len(sem.Repairs))
	for i, r := range sem.Repairs {
		facts := r.DB.Facts()
		renamed := make([]relation.Fact, len(facts))
		for j, f := range facts {
			renamed[j] = renameFact(f, ren)
		}
		db := relation.FromFacts(renamed...)
		out.Repairs[i] = Repair{
			DB:        db,
			P:         new(big.Rat).Set(r.P),
			Sequences: r.Sequences,
			SeqCount:  new(big.Int).Set(r.SeqCount),
		}
		keys[i] = db.Key()
	}
	sort.Sort(&repairsByKey{keys: keys, repairs: out.Repairs})
	return out
}

// renameFact maps a fact's arguments through ren (identity for arguments
// outside the map).
func renameFact(f relation.Fact, ren map[intern.Sym]intern.Sym) relation.Fact {
	orig := f.Args()
	args := make([]intern.Sym, len(orig))
	for i, a := range orig {
		if r, ok := ren[a]; ok {
			args[i] = r
		} else {
			args[i] = a
		}
	}
	return relation.FactOf(f.Pred(), args)
}

// NumRepairs returns the number of distinct operational repairs of the full
// database: the product of the per-component repair counts.
func (f *Factored) NumRepairs() *big.Int {
	n := big.NewInt(1)
	for _, c := range f.Components {
		n.Mul(n, big.NewInt(int64(c.NumRepairs())))
	}
	return n
}

// FactProbability returns the exact probability that the fact appears in an
// operational repair: 1 for untouched facts, the component-local marginal
// for conflicted facts, and 0 for facts absent from the database. The
// component is found through the partition's resident fact→island index,
// so the lookup is O(|component repairs|) regardless of the number of
// components. This answers atomic queries exactly in time polynomial in
// the component sizes even when the full repair count is astronomical.
func (f *Factored) FactProbability(fact relation.Fact) *big.Rat {
	if isl := f.part.IslandOf(fact); isl != nil {
		return isl.Payload.(*Component).marginal(fact)
	}
	if f.Untouched.Contains(fact) {
		return prob.One()
	}
	return prob.Zero()
}

// maxEnumeratedRepairs bounds full repair enumeration in CP and OCA.
const maxEnumeratedRepairs = 1 << 20

// eachRepair enumerates the product distribution: fn sees every full
// repair with its unnormalized probability (the database is shared and
// valid only during the call). It returns the total success mass, or
// ErrEnumerationBudget — with hint naming the way out — when the product
// exceeds maxEnumeratedRepairs.
func (f *Factored) eachRepair(hint string, fn func(db *relation.Database, p *big.Rat)) (*big.Rat, error) {
	total := f.NumRepairs()
	if !total.IsInt64() || total.Int64() > maxEnumeratedRepairs {
		return nil, fmt.Errorf("%w: %s repairs > %d; %s",
			ErrEnumerationBudget, total.String(), maxEnumeratedRepairs, hint)
	}
	den := prob.Zero()
	db := f.Untouched.Clone()
	var rec func(i int, p *big.Rat)
	rec = func(i int, p *big.Rat) {
		if i == len(f.Components) {
			den.Add(den, p)
			fn(db, p)
			return
		}
		for _, r := range f.Components[i].Semantics().Repairs {
			for _, fact := range r.DB.Facts() {
				db.Insert(fact)
			}
			rec(i+1, new(big.Rat).Mul(p, r.P))
			for _, fact := range r.DB.Facts() {
				db.Delete(fact)
			}
		}
	}
	rec(0, prob.One())
	return den, nil
}

// atomicOutputs analyses the atomic query shape Q(x̄) := R(t̄): a single
// positive atom whose variables are all output variables. It returns the
// atom and each output variable's index; determined reports that every
// output variable also occurs in the atom, so a tuple selects exactly one
// ground fact and Q holds in a repair iff that fact is present. Without
// it, Holds depends on active-domain membership, not on a single fact.
func atomicOutputs(q *fo.Query) (atom logic.Atom, outIdx map[intern.Sym]int, determined, ok bool) {
	a, isAtom := q.F.(fo.Atom)
	if !isAtom {
		return logic.Atom{}, nil, false, false
	}
	outIdx = make(map[intern.Sym]int, len(q.Out))
	for i, t := range q.Out {
		outIdx[t.Sym()] = i
	}
	used := make([]bool, len(q.Out))
	for _, t := range a.A.Args {
		if !t.IsVar() {
			continue
		}
		j, isOut := outIdx[t.Sym()]
		if !isOut {
			return logic.Atom{}, nil, false, false
		}
		used[j] = true
	}
	for _, u := range used {
		if !u {
			return a.A, outIdx, false, true
		}
	}
	return a.A, outIdx, true, true
}

// atomicCP answers CP for an atomic query without enumerating: the tuple
// selects one ground fact, whose marginal is CP. ok is false when the
// query is not atomic or the tuple does not determine a fact. A tuple of
// the wrong arity, naming a constant that occurs in no database, or
// selecting an absent fact fails Holds everywhere, so CP is exactly 0.
func (f *Factored) atomicCP(q *fo.Query, tuple []string) (*big.Rat, bool) {
	atom, outIdx, determined, ok := atomicOutputs(q)
	if !ok {
		return nil, false
	}
	if len(tuple) != len(q.Out) {
		return prob.Zero(), true
	}
	args := make([]intern.Sym, len(atom.Args))
	for i, t := range atom.Args {
		if !t.IsVar() {
			args[i] = t.Sym()
			continue
		}
		sym, interned := intern.Lookup(tuple[outIdx[t.Sym()]])
		if !interned {
			return prob.Zero(), true
		}
		args[i] = sym
	}
	if !determined {
		return nil, false
	}
	fact, exists := relation.LookupFact(atom.Pred, args)
	if !exists {
		return prob.Zero(), true
	}
	return f.FactProbability(fact), true
}

// CP computes the exact conditional probability of a tuple. Atomic queries
// (a single positive atom over constants and output variables) are routed
// through FactProbability and never enumerate, whatever the scale. Other
// queries enumerate the product distribution; when the product exceeds
// maxEnumeratedRepairs CP returns ErrEnumerationBudget instead of running
// forever — CPOrEstimate falls back to sampling automatically.
func (f *Factored) CP(q *fo.Query, tuple []string) (*big.Rat, error) {
	if p, ok := f.atomicCP(q, tuple); ok {
		return p, nil
	}
	num := prob.Zero()
	den, err := f.eachRepair("FactProbability answers atomic queries exactly, EstimateCP samples the rest",
		func(db *relation.Database, p *big.Rat) {
			if q.Holds(db, tuple) {
				num.Add(num, p)
			}
		})
	if err != nil {
		return nil, err
	}
	if den.Sign() == 0 {
		return prob.Zero(), nil
	}
	return num.Quo(num, den), nil
}

// CPOrEstimate computes CP exactly when feasible — always for atomic
// queries, and for arbitrary queries while the product distribution fits
// the enumeration budget — and otherwise falls back to the (ε, δ) sampling
// estimate. exact reports which route produced the value.
func (f *Factored) CPOrEstimate(q *fo.Query, tuple []string, eps, delta float64, seed int64) (p *big.Rat, exact bool, err error) {
	p, err = f.CP(q, tuple)
	if err == nil {
		return p, true, nil
	}
	if !errors.Is(err, ErrEnumerationBudget) {
		return nil, false, err
	}
	est, err := f.EstimateCP(q, tuple, eps, delta, seed)
	if err != nil {
		return nil, false, err
	}
	return new(big.Rat).SetFloat64(est), false, nil
}

// OCA returns the operational consistent answers over the factored
// semantics. Atomic queries scan the initial database once and read each
// matching fact's exact marginal off its component — polynomial at any
// scale. Other queries enumerate the product distribution under the same
// budget as CP.
func (f *Factored) OCA(q *fo.Query) (*AnswerSet, error) {
	if as, ok := f.atomicOCA(q); ok {
		return as, nil
	}
	acc := newAnswerMass(q)
	den, err := f.eachRepair("only atomic queries have factored OCA at this scale", acc.add)
	if err != nil {
		return nil, err
	}
	return acc.answers(den), nil
}

// atomicOCA answers an atomic query by a single scan over the initial
// database: each fact matching the atom's pattern yields one candidate
// tuple whose probability is the fact's marginal (the tuple determines the
// fact, so no aggregation is needed).
func (f *Factored) atomicOCA(q *fo.Query) (*AnswerSet, bool) {
	atom, outIdx, determined, ok := atomicOutputs(q)
	if !ok || !determined {
		return nil, false
	}
	out := &AnswerSet{Query: q}
	db := f.initial
	if !db.Sealed() {
		// A database with a pending delta is single-owner (even reads
		// populate merged per-predicate views), and served snapshots keep
		// theirs unsealed so publication stays O(delta); concurrent readers
		// scan a private O(delta) clone instead.
		db = db.Clone()
	}
	for _, fact := range db.FactsByPred(atom.Pred) {
		fargs := fact.Args()
		if len(fargs) != len(atom.Args) {
			continue
		}
		binding := make([]intern.Sym, len(q.Out))
		bound := make([]bool, len(q.Out))
		match := true
		for i, t := range atom.Args {
			if !t.IsVar() {
				if t.Sym() != fargs[i] {
					match = false
					break
				}
				continue
			}
			j := outIdx[t.Sym()]
			if bound[j] && binding[j] != fargs[i] {
				match = false // repeated variable bound inconsistently
				break
			}
			binding[j], bound[j] = fargs[i], true
		}
		if !match {
			continue
		}
		p := f.FactProbability(fact)
		if p.Sign() <= 0 {
			continue
		}
		tuple := make([]string, len(q.Out))
		for j, sym := range binding {
			tuple[j] = intern.Name(sym)
		}
		out.Answers = append(out.Answers, Answer{Tuple: tuple, P: p})
	}
	sortAnswers(out)
	return out, true
}

// TotalSequences returns the exact number of complete sequences of the
// full chain M_Σ(D). Probabilities under the sequence-uniform mode do not
// factorize across components (interleavings weigh components by length),
// but the *count* does: every complete sequence is an interleaving of
// per-component complete sequences, so the total is the binomial
// convolution of the per-component length-stratified counts. It requires
// the components to have been explored with
// markov.ExploreOptions.TrackLengths.
func (f *Factored) TotalSequences() (*big.Int, error) {
	// T[m] counts the interleavings of complete sequences of the first i
	// components with total length m.
	T := []*big.Int{big.NewInt(1)}
	for _, c := range f.Components {
		sem := c.canon
		if sem == nil {
			sem = c.sem
		}
		cl := sem.SequencesByLength
		if cl == nil {
			return nil, fmt.Errorf("core: per-length sequence counts unavailable; recompute with markov.ExploreOptions.TrackLengths")
		}
		nt := make([]*big.Int, len(T)+len(cl)-1)
		for i := range nt {
			nt[i] = new(big.Int)
		}
		var binom big.Int
		for m, tm := range T {
			if tm.Sign() == 0 {
				continue
			}
			for l, cnt := range cl {
				if cnt.Sign() == 0 {
					continue
				}
				// The l operations of the new component choose their slots
				// among the m+l positions.
				binom.Binomial(int64(m+l), int64(l))
				term := new(big.Int).Mul(tm, cnt)
				term.Mul(term, &binom)
				nt[m+l].Add(nt[m+l], term)
			}
		}
		T = nt
	}
	total := new(big.Int)
	for _, t := range T {
		total.Add(total, t)
	}
	return total, nil
}

// SampleRepair draws one full repair exactly from the factorized
// distribution: one local repair per component, independently. Unlike a
// chain walk this costs O(|D| + Σ |component repairs|) per draw.
func (f *Factored) SampleRepair(rng *rand.Rand) *relation.Database {
	db := f.Untouched.Clone()
	for _, c := range f.Components {
		repairs := c.Semantics().Repairs
		pick := repairs[prob.Pick(rng, c.repairWeights())]
		for _, fact := range pick.DB.Facts() {
			db.Insert(fact)
		}
	}
	return db
}

// EstimateCP approximates CP(t̄) with the additive (ε, δ) guarantee of
// Theorem 9, drawing exact factored repairs instead of chain walks; each
// sample is orders of magnitude cheaper than a walk on large instances.
func (f *Factored) EstimateCP(q *fo.Query, tuple []string, eps, delta float64, seed int64) (float64, error) {
	n, err := prob.HoeffdingSamples(eps, delta)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for i := 0; i < n; i++ {
		if q.Holds(f.SampleRepair(rng), tuple) {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}
