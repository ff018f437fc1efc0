package sat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/fo"
	"repro/internal/logic"
	"repro/internal/relation"
)

// randomKeyInstance builds R(K, V) and S(K, V), each keyed on K, with
// key groups of 1..9 facts (sizes 2..9 violate the key: pairwise
// at-most-one up to pairwiseAtMostOneLimit, the ladder above). R's values
// are S's keys, so join witnesses touch up to two groups.
func randomKeyInstance(rng *rand.Rand) (*relation.Database, *constraint.Set) {
	db := relation.NewDatabase()
	nR, nS := 2+rng.Intn(5), 2+rng.Intn(5)
	for _, tbl := range []struct {
		pred string
		keys int
	}{{"R", nR}, {"S", nS}} {
		for k := 0; k < tbl.keys; k++ {
			size := 1
			if rng.Intn(3) > 0 {
				size = 2 + rng.Intn(8)
			}
			for i := 0; i < size; i++ {
				val := fmt.Sprintf("v%d", i)
				if tbl.pred == "R" {
					val = fmt.Sprintf("S%d", rng.Intn(nS+1)) // S<nS> keys no S row
				}
				db.Insert(relation.NewFact(tbl.pred, fmt.Sprintf("%s%d", tbl.pred, k), val))
			}
		}
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	key := func(pred string) *constraint.Constraint {
		return constraint.MustEGD([]logic.Atom{logic.NewAtom(pred, x, y), logic.NewAtom(pred, x, z)}, y, z)
	}
	return db, constraint.NewSet(key("R"), key("S"))
}

// TestRestrictEquisatisfiable is the exactness property of restrict: for
// every candidate of random key instances, the formula over just the
// touched groups has the verdict of a fresh solve of the full
// base ∧ witness clauses — under both repair spaces. Under the default
// (at-most-one) space a candidate is moreover certain iff it has a
// conflict-free witness: the all-false assignment breaks every witness
// that touches a conflicted fact.
func TestRestrictEquisatisfiable(t *testing.T) {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	r, s := fo.Atom{A: logic.NewAtom("R", x, y)}, fo.Atom{A: logic.NewAtom("S", y, z)}
	queries := []*fo.Query{
		fo.MustQuery("J", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z}, F: fo.And{L: r, R: s}}),
		fo.MustQuery("P", []logic.Term{x, z}, fo.Exists{Vars: []logic.Term{y}, F: fo.And{L: r, R: s}}),
		fo.MustQuery("B", nil, fo.Exists{Vars: []logic.Term{x, y, z}, F: fo.And{L: r, R: s}}),
	}
	rng := rand.New(rand.NewSource(7))
	var pairwise, ladder, unsat, solved int
	for iter := 0; iter < 60; iter++ {
		db, sigma := randomKeyInstance(rng)
		for _, opts := range []Options{{}, {MaximalRepairs: true}} {
			e, err := NewEncoder(db, sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range e.groups {
				if len(g) > pairwiseAtMostOneLimit {
					ladder++
				} else {
					pairwise++
				}
			}
			for _, q := range queries {
				cands, err := e.collect(q)
				if err != nil {
					t.Fatal(err)
				}
				rs := e.newRestrictor()
				for _, c := range cands {
					if c.certain {
						continue
					}
					full := e.base.Clone()
					for _, cl := range c.witness {
						full.Add(cl...)
					}
					want := NewSolver(full).Solve()
					restricted := rs.restrict(c.witness)
					if restricted.NumVars() > full.NumVars() || restricted.NumClauses() > full.NumClauses() {
						t.Fatalf("restricted formula (%d vars, %d clauses) outgrows the full one (%d, %d)",
							restricted.NumVars(), restricted.NumClauses(), full.NumVars(), full.NumClauses())
					}
					got := NewSolver(restricted).Solve()
					if got != want {
						t.Fatalf("iter %d %+v %s%v: restricted SAT=%v, full SAT=%v", iter, opts, q.Name, c.tuple, got, want)
					}
					if !opts.MaximalRepairs && !got {
						t.Fatalf("iter %d %s%v: certain without a conflict-free witness under at-most-one", iter, q.Name, c.tuple)
					}
					solved++
					if !got {
						unsat++
					}
				}
			}
		}
	}
	// The property is only as strong as the shapes it saw.
	if pairwise == 0 || ladder == 0 || solved == 0 || unsat == 0 {
		t.Fatalf("degenerate run: %d pairwise groups, %d ladder groups, %d solved, %d unsat", pairwise, ladder, solved, unsat)
	}
	t.Logf("%d pairwise groups, %d ladder groups; %d candidates solved, %d unsat", pairwise, ladder, solved, unsat)
}

// TestEncoderConcurrentUse runs CertainAnswers on one Encoder from several
// goroutines: each call restricts with its own scratch, so the results
// agree (and the race detector stays quiet).
func TestEncoderConcurrentUse(t *testing.T) {
	db, sigma := randomKeyInstance(rand.New(rand.NewSource(3)))
	e, err := NewEncoder(db, sigma, Options{MaximalRepairs: true})
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	q := fo.MustQuery("J", []logic.Term{x}, fo.Exists{Vars: []logic.Term{y, z}, F: fo.And{
		L: fo.Atom{A: logic.NewAtom("R", x, y)}, R: fo.Atom{A: logic.NewAtom("S", y, z)}}})
	want, err := e.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Solved == 0 {
		t.Fatal("instance puts no candidate through the solver")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.CertainAnswers(q)
			if err == nil && fmt.Sprint(got.Answers, got.Stats) != fmt.Sprint(want.Answers, want.Stats) {
				err = fmt.Errorf("concurrent CertainAnswers = %v %+v, want %v %+v", got.Answers, got.Stats, want.Answers, want.Stats)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
