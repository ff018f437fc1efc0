package sat

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/intern"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/relation"
)

// ErrUnsupportedConstraints reports that the constraint set is not a set
// of key-shaped EGDs, the only fragment the SAT compilation covers.
var ErrUnsupportedConstraints = errors.New("sat: constraints are not all key-shaped EGDs")

// ErrUnsupportedQuery reports that the query is outside the compilable
// fragment: not a conjunction of positive atoms, or with an output
// variable that does not occur in the body (such variables range over the
// repair's active domain, which the boolean encoding does not track).
var ErrUnsupportedQuery = errors.New("sat: query is not a compilable conjunctive query")

// Options tunes the repair space the encoding quantifies over.
type Options struct {
	// MaximalRepairs switches the per-group cardinality constraint from
	// at-most-one to exactly-one surviving fact.
	//
	// The operational semantics justifies deleting ANY non-empty subset of
	// a violation's facts (ops: Proposition 1), so its absorbing states
	// keep at most one fact per violating key group — including the
	// "trust neither" empty resolution — and at-most-one is what matches
	// the tree/DAG/factored engines. Exactly-one instead quantifies over
	// the classical maximal repairs (subset-maximal consistent
	// subinstances), the space CAvSAT-style systems use; it is strictly
	// smaller, so it can only grow the certain set. The default (false)
	// matches the repo's chain engines.
	MaximalRepairs bool
}

// Encoder compiles certain-answer questions over one (database, key
// constraints) pair to CNF. Construction validates the constraint
// fragment, finds the violating key groups, assigns one boolean per
// conflicted fact ("the repair keeps this fact"), and builds the shared
// cardinality clauses; per-query compilation then pairs each candidate's
// witness clauses with the cardinality clauses of just the groups those
// witnesses touch (restrict). Facts outside every violating group survive
// in every repair and need no variable.
//
// An Encoder is read-only after construction and safe for concurrent use.
type Encoder struct {
	db     *relation.Database
	opts   Options
	base   *CNF
	vars   map[uint32]Var    // fact ID → keep-variable
	facts  []relation.Fact   // facts[v-1] = fact of variable v (v ≤ len(facts); ladder auxiliaries come after)
	groups [][]relation.Fact // violating key groups, deterministic order
	// groupOf[v-1] is the group of fact variable v; group g's cardinality
	// clauses are base.clauses[groupClauses[g]:groupClauses[g+1]].
	groupOf      []int32
	groupClauses []int32
}

// NewEncoder validates that sigma consists solely of key-shaped EGDs
// (table keys, per plan.Catalog.DeriveKeys; an empty set is fine — the
// database is then consistent) and builds the shared group constraints.
func NewEncoder(db *relation.Database, sigma *constraint.Set, opts Options) (*Encoder, error) {
	cat := plan.NewCatalogOn(db)
	keyed, unrecognized := cat.DeriveKeys(sigma)
	if unrecognized > 0 {
		return nil, fmt.Errorf("%w: %d of %d constraints unrecognized", ErrUnsupportedConstraints, unrecognized, len(sigma.All()))
	}
	e := &Encoder{db: db, opts: opts, vars: map[uint32]Var{}}
	for _, name := range keyed {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		e.groups = append(e.groups, relation.KeyViolatingGroups(db, t.Pred, len(t.Cols), cat.Key(name))...)
	}
	// All fact variables first, cardinality clauses second: ladder
	// auxiliaries then number past len(e.facts), keeping the fact↔variable
	// mapping a plain slice. Groups partition the conflicted facts (one
	// key per predicate; a fact lies in the group of its key value), which
	// makes groupOf well defined and is what restrict relies on.
	cnf := NewCNF(0)
	for gi, g := range e.groups {
		for _, f := range g {
			if _, ok := e.vars[f.ID()]; !ok {
				e.vars[f.ID()] = cnf.NewVar()
				e.facts = append(e.facts, f)
				e.groupOf = append(e.groupOf, int32(gi))
			}
		}
	}
	gv := make([]Var, 0, 8)
	e.groupClauses = make([]int32, 0, len(e.groups)+1)
	for _, g := range e.groups {
		e.groupClauses = append(e.groupClauses, int32(cnf.NumClauses()))
		gv = gv[:0]
		for _, f := range g {
			gv = append(gv, e.vars[f.ID()])
		}
		if opts.MaximalRepairs {
			cnf.ExactlyOne(gv)
		} else {
			cnf.AtMostOne(gv)
		}
	}
	e.groupClauses = append(e.groupClauses, int32(cnf.NumClauses()))
	e.base = cnf
	return e, nil
}

// Groups reports the number of violating key groups.
func (e *Encoder) Groups() int { return len(e.groups) }

// ConflictFacts reports the number of facts carrying a variable.
func (e *Encoder) ConflictFacts() int { return len(e.facts) }

// candidate is one potential answer tuple with its compiled witness
// clauses. A witness is one homomorphism's image; the tuple is an answer
// in exactly the repairs where some witness survives intact. Each clause
// lists the negated keep-variables of one witness's conflicted facts, so
// the conjunction base ∧ clauses is satisfiable iff some repair breaks
// every witness — iff the tuple is NOT certain. A witness whose facts are
// all conflict-free survives in every repair: the tuple is certain with
// no solver call (certain=true, clauses dropped).
type candidate struct {
	tuple   []string
	witness [][]Lit
	witSeen map[string]bool
	certain bool
}

// collect enumerates the query's homomorphisms over the full database
// once — repairs are subsets and the query is monotone, so every witness
// in every repair appears here — grouping witness clauses by answer
// tuple. Candidates come back sorted by tuple.
func (e *Encoder) collect(q *fo.Query) ([]*candidate, error) {
	atoms, unconstrained, ok := q.CQ()
	if !ok {
		return nil, fmt.Errorf("%w: body is not a conjunction of positive atoms", ErrUnsupportedQuery)
	}
	if len(unconstrained) > 0 {
		return nil, fmt.Errorf("%w: %d output variables do not occur in the body", ErrUnsupportedQuery, len(unconstrained))
	}
	byKey := map[string]*candidate{}
	var cands []*candidate
	var packBuf [64]byte
	var keyBuf [64]byte
	tuple := make([]intern.Sym, len(q.Out))
	wvars := make([]Var, 0, 8)
	relation.ForEachHom(atoms, e.db, logic.NewSubst(), func(h logic.Subst) bool {
		for i, v := range q.Out {
			c, _ := h.Lookup(v.Sym())
			tuple[i] = c
		}
		k := string(intern.PackSyms(packBuf[:0], tuple))
		cand := byKey[k]
		if cand == nil {
			cand = &candidate{tuple: intern.Names(tuple), witSeen: map[string]bool{}}
			byKey[k] = cand
			cands = append(cands, cand)
		}
		if cand.certain {
			return true
		}
		wvars = wvars[:0]
		for _, a := range atoms {
			f := relation.MustFactFromAtom(h.ApplyAtom(a))
			v, conflicted := e.vars[f.ID()]
			if !conflicted {
				continue
			}
			dup := false
			for _, have := range wvars {
				if have == v {
					dup = true
					break
				}
			}
			if !dup {
				wvars = append(wvars, v)
			}
		}
		if len(wvars) == 0 {
			// A conflict-free witness: present in every repair.
			cand.certain = true
			cand.witness = nil
			cand.witSeen = nil
			return true
		}
		sort.Slice(wvars, func(i, j int) bool { return wvars[i] < wvars[j] })
		kb := keyBuf[:0]
		for _, v := range wvars {
			kb = append(kb, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		wk := string(kb)
		if !cand.witSeen[wk] {
			cand.witSeen[wk] = true
			cl := make([]Lit, len(wvars))
			for i, v := range wvars {
				cl[i] = -v
			}
			cand.witness = append(cand.witness, cl)
		}
		return true
	})
	sort.Slice(cands, func(i, j int) bool {
		return lessTuples(cands[i].tuple, cands[j].tuple)
	})
	return cands, nil
}

func lessTuples(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// CertainResult is the outcome of one SAT certain-answer computation.
type CertainResult struct {
	// Answers is the sorted certain set.
	Answers [][]string
	// Candidates counts distinct tuples with at least one witness on the
	// full database (a superset of the certain set, by monotonicity);
	// CandidateTuples lists them, sorted.
	Candidates      int
	CandidateTuples [][]string
	// Immediate counts candidates decided without a solver call: some
	// witness used only conflict-free facts.
	Immediate int
	// Solved counts solver invocations (one per remaining candidate).
	Solved int
	// Vars and Clauses describe the shared base formula (group cardinality
	// constraints, including ladder auxiliaries); Groups the violating key
	// groups it encodes.
	Vars, Clauses, Groups int
	// Stats aggregates solver work across all invocations.
	Stats Stats
}

// CertainAnswers computes the certain answers of q: the tuples that are
// answers in every repair. A candidate tuple is certain iff its witness
// clauses are unsatisfiable together with the cardinality clauses of the
// groups they touch (restrict).
func (e *Encoder) CertainAnswers(q *fo.Query) (*CertainResult, error) {
	cands, err := e.collect(q)
	if err != nil {
		return nil, err
	}
	res := &CertainResult{
		Candidates: len(cands),
		Vars:       e.base.NumVars(),
		Clauses:    e.base.NumClauses(),
		Groups:     len(e.groups),
	}
	for _, c := range cands {
		res.CandidateTuples = append(res.CandidateTuples, c.tuple)
	}
	r := e.newRestrictor()
	for _, c := range cands {
		certain := c.certain
		if certain {
			res.Immediate++
		} else {
			s := NewSolver(r.restrict(c.witness))
			res.Solved++
			certain = !s.Solve()
			res.Stats.Add(s.Stats)
		}
		if certain {
			res.Answers = append(res.Answers, c.tuple)
		}
	}
	fo.SortTuples(res.Answers)
	return res, nil
}

// restrictor builds per-candidate formulas over the touched key groups.
// Its stamp-indexed slices renumber variables without clearing between
// candidates; each call on the Encoder makes its own, so the Encoder stays
// read-only.
type restrictor struct {
	e       *Encoder
	stamp   int32
	gSeen   []int32 // group → stamp of the last candidate touching it
	vSeen   []int32 // base variable → stamp of the last candidate numbering it
	renum   []Var   // base variable → restricted variable, valid when vSeen matches
	touched []int32
	// origin[i] is the base variable behind restricted variable i+1, for
	// the candidate most recently restricted.
	origin []Var
}

func (e *Encoder) newRestrictor() *restrictor {
	n := e.base.NumVars() + 1
	return &restrictor{
		e:     e,
		gSeen: make([]int32, len(e.groups)),
		vSeen: make([]int32, n),
		renum: make([]Var, n),
	}
}

// restrict returns the "tuple is NOT certain" formula of one candidate:
// the cardinality clauses of the groups its witness clauses touch, plus
// the witness clauses, with variables renumbered densely from 1 in order
// of first occurrence. It is satisfiable iff base ∧ witness is: base
// clauses of different groups share no variable (auxiliaries included),
// and every group is satisfiable on its own (all-false meets at-most-one;
// a non-empty group meets exactly-one), so the untouched groups extend
// any model.
func (r *restrictor) restrict(witness [][]Lit) *CNF {
	e := r.e
	r.stamp++
	r.touched = r.touched[:0]
	r.origin = r.origin[:0]
	nLits, nClauses := 0, len(witness)
	for _, cl := range witness {
		nLits += len(cl)
		for _, l := range cl {
			// Witness literals are negated fact variables.
			if g := e.groupOf[-l-1]; r.gSeen[g] != r.stamp {
				r.gSeen[g] = r.stamp
				r.touched = append(r.touched, g)
			}
		}
	}
	slices.Sort(r.touched)
	for _, g := range r.touched {
		for _, cl := range e.groupBase(g) {
			nLits += len(cl)
		}
		nClauses += len(e.groupBase(g))
	}
	f := &CNF{clauses: make([][]Lit, 0, nClauses)}
	flat := make([]Lit, nLits)
	add := func(cl []Lit) {
		out := flat[:len(cl):len(cl)]
		flat = flat[len(cl):]
		for i, l := range cl {
			if l < 0 {
				out[i] = -r.number(-l)
			} else {
				out[i] = r.number(l)
			}
		}
		f.clauses = append(f.clauses, out)
	}
	for _, g := range r.touched {
		for _, cl := range e.groupBase(g) {
			add(cl)
		}
	}
	for _, cl := range witness {
		add(cl)
	}
	f.nv = Var(len(r.origin))
	return f
}

// groupBase returns group g's cardinality clauses in the base formula.
func (e *Encoder) groupBase(g int32) [][]Lit {
	return e.base.clauses[e.groupClauses[g]:e.groupClauses[g+1]]
}

// number returns base variable v's restricted variable, allocating the
// next one when the current candidate meets v first.
func (r *restrictor) number(v Var) Var {
	if r.vSeen[v] != r.stamp {
		r.vSeen[v] = r.stamp
		r.origin = append(r.origin, v)
		r.renum[v] = Var(len(r.origin))
	}
	return r.renum[v]
}

// find collects q's candidates and returns tuple's, or nil when the tuple
// has no witness on the full database.
func (e *Encoder) find(q *fo.Query, tuple []string) (*candidate, error) {
	cands, err := e.collect(q)
	if err != nil {
		return nil, err
	}
	for _, c := range cands {
		if equalTuples(c.tuple, tuple) {
			return c, nil
		}
	}
	return nil, nil
}

// Certain decides one tuple: is it an answer in every repair? A tuple
// with no witness on the full database is not certain (monotonicity).
func (e *Encoder) Certain(q *fo.Query, tuple []string) (bool, error) {
	cnf, found, err := e.TupleCNF(q, tuple)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	if cnf == nil {
		return true, nil // conflict-free witness
	}
	s := NewSolver(cnf)
	return !s.Solve(), nil
}

// TupleCNF compiles the "tuple is NOT certain" formula for one tuple: the
// restricted formula CertainAnswers decides (restrict). found reports
// whether the tuple has any witness at all; a nil CNF with found=true
// means a conflict-free witness made the tuple certain outright (the
// formula would contain the empty clause).
func (e *Encoder) TupleCNF(q *fo.Query, tuple []string) (cnf *CNF, found bool, err error) {
	c, err := e.find(q, tuple)
	if err != nil || c == nil {
		return nil, false, err
	}
	if c.certain {
		return nil, true, nil
	}
	return e.newRestrictor().restrict(c.witness), true, nil
}

func equalTuples(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteTupleDIMACS exports the "tuple is NOT certain" formula in DIMACS
// CNF for cross-checking with an external solver: UNSAT means certain.
// The formula is the restricted one the engine decides, with a
// "var i = keep <fact>" comment per fact variable. Tuples decided without
// a solver (no witness, or a conflict-free witness) export a trivial
// equivalent — the empty formula (trivially SAT: not certain) or a single
// empty clause (trivially UNSAT: certain) — so the external verdict always
// matches the engine's.
func (e *Encoder) WriteTupleDIMACS(w io.Writer, q *fo.Query, tuple []string) error {
	c, err := e.find(q, tuple)
	if err != nil {
		return err
	}
	return e.writeDIMACS(w, q, tuple, c, e.newRestrictor())
}

// ExportDIMACS writes every candidate's formula, as WriteTupleDIMACS
// would, from one homomorphism pass. Candidate i (in
// CertainResult.CandidateTuples order) goes to the writer create returns
// for it, which ExportDIMACS closes.
func (e *Encoder) ExportDIMACS(q *fo.Query, create func(i int, tuple []string) (io.WriteCloser, error)) error {
	cands, err := e.collect(q)
	if err != nil {
		return err
	}
	r := e.newRestrictor()
	for i, c := range cands {
		w, err := create(i, c.tuple)
		if err != nil {
			return err
		}
		if err := e.writeDIMACS(w, q, c.tuple, c, r); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeDIMACS writes tuple's formula; c is its candidate, nil when the
// tuple has no witness.
func (e *Encoder) writeDIMACS(w io.Writer, q *fo.Query, tuple []string, c *candidate, r *restrictor) error {
	head := fmt.Sprintf("%s%s is NOT certain iff SAT", q.Name, fo.TupleString(tuple))
	switch {
	case c == nil:
		return NewCNF(0).WriteDIMACS(w, head, "tuple has no witness on the full database: trivially not certain")
	case c.certain:
		cnf := NewCNF(0)
		cnf.Add()
		return cnf.WriteDIMACS(w, head, "tuple has a conflict-free witness: certain in every repair")
	}
	cnf := r.restrict(c.witness)
	comments := make([]string, 0, len(r.origin)+1)
	comments = append(comments, head)
	for i, v := range r.origin {
		if int(v) <= len(e.facts) {
			comments = append(comments, fmt.Sprintf("var %d = keep %s", i+1, e.facts[v-1]))
		}
	}
	return cnf.WriteDIMACS(w, comments...)
}
