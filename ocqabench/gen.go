package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/parse"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Inputs are written as text, exactly as a user would hand them to ocqa
// and ocqad. Constraint and query text is written by hand with uppercase
// variables: parse.RenderConstraints prints programmatically built
// variables such as logic.Var("x") bare, the parser reads them back as
// constants, and the rendered constraint then finds no violation at all
// (finding (e) in README.md). Every job asserts the generator's expected
// counts, so a silently empty workload fails instead of reading as a
// speedup.

// keysConstraints keys cust on C and orders on O (one EGD per non-key
// column, the shape plan.Catalog.DeriveKeys recognizes as a table key).
const keysConstraints = `cust(C, N), cust(C, M) -> N = M.
orders(O, C, P), orders(O, D, Q) -> C = D.
orders(O, C, P), orders(O, D, Q) -> P = Q.
`

// keysReportQuery is the full customer report of keys-factored: atomic, so
// it takes the factored engine's exact fast path at any scale.
const keysReportQuery = "Q(C, N) := cust(C, N).\n"

// keysJoinQuery is the order/customer join of keys-sat: a conjunctive
// query, the shape the SAT encoder handles.
const keysJoinQuery = "Q(O, N) := exists C, P: (orders(O, C, P) & cust(C, N)).\n"

// KeysConfig sizes the two-table key-violation instance
// cust(C, N) keyed on C and orders(O, C, P) keyed on O, with inconsistency
// injected as in the CAvSAT evaluation (Dixit & Kolaitis, arXiv
// 1905.02828): a fraction of the keys of each table is violated, each by a
// group of MinGroup..MaxGroup rows.
type KeysConfig struct {
	Orders, Customers  int
	ViolationRate      float64
	MinGroup, MaxGroup int
}

// KeysInstance is a generated instance together with everything the
// oracles need to know about it.
type KeysInstance struct {
	DB string
	// CustNames lists each customer's names; more than one name means the
	// customer key is violated.
	CustNames [][]string
	// OrderCust lists each order's customers, one per row; more than one
	// row means the order key is violated.
	OrderCust [][]int
	// Expected counts every job asserts.
	Facts, Violations, Groups int
}

func custKey(c int) string     { return fmt.Sprintf("c%06d", c) }
func orderKey(o int) string    { return fmt.Sprintf("o%07d", o) }
func custName(c, j int) string { return fmt.Sprintf("n%06d_%d", c, j) }

// GenKeys generates the instance from seed. Exactly ViolationRate of the
// keys of each table are violated, with group sizes dealt round-robin over
// MinGroup..MaxGroup, so the amount of work is the same for every seed;
// the seed picks which keys, which customers and which P values. Exactly
// ViolationRate of the order rows point at violated customers. Violated
// order rows point at pairwise distinct customers with distinct P values,
// so every pair of rows in an order group violates both orders EGDs.
func GenKeys(cfg KeysConfig, seed int64) *KeysInstance {
	rng := rand.New(rand.NewSource(seed))
	groups := func(n int) []int {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1
		}
		violated := int(cfg.ViolationRate*float64(n) + 0.5)
		for k, i := range rng.Perm(n)[:violated] {
			sizes[i] = cfg.MinGroup + k%(cfg.MaxGroup-cfg.MinGroup+1)
		}
		return sizes
	}
	custSizes, orderSizes := groups(cfg.Customers), groups(cfg.Orders)
	var clean, dirty []int
	for c, g := range custSizes {
		if g > 1 {
			dirty = append(dirty, c)
		} else {
			clean = append(clean, c)
		}
	}
	rows := 0
	for _, g := range orderSizes {
		rows += g
	}
	toDirty := make([]bool, rows)
	for _, r := range rng.Perm(rows)[:int(cfg.ViolationRate*float64(rows)+0.5)] {
		toDirty[r] = true
	}
	inst := &KeysInstance{}
	var b strings.Builder
	for c, g := range custSizes {
		names := make([]string, g)
		for j := range names {
			names[j] = custName(c, j)
			fmt.Fprintf(&b, "cust(%s, %s).\n", custKey(c), names[j])
		}
		inst.CustNames = append(inst.CustNames, names)
		inst.Facts += g
		if g > 1 {
			inst.Groups++
			inst.Violations += g * (g - 1)
		}
	}
	row := 0
	for o, g := range orderSizes {
		custs := make([]int, 0, g)
		seen := map[int]bool{}
		for len(custs) < g {
			pool := clean
			if toDirty[row+len(custs)] {
				pool = dirty
			}
			c := pool[rng.Intn(len(pool))]
			if !seen[c] {
				seen[c] = true
				custs = append(custs, c)
			}
		}
		row += g
		for j, c := range custs {
			fmt.Fprintf(&b, "orders(%s, %s, p%d).\n", orderKey(o), custKey(c), j+rng.Intn(4)*g)
		}
		inst.OrderCust = append(inst.OrderCust, custs)
		inst.Facts += g
		if g > 1 {
			inst.Groups++
			// Two EGDs, each violated by every ordered pair of rows.
			inst.Violations += 2 * g * (g - 1)
		}
	}
	inst.DB = b.String()
	return inst
}

// prefConstraint is the paper's asymmetry denial constraint (Section 3).
const prefConstraint = "Pref(X, Y), Pref(Y, X) -> false.\n"

// prefQuery asks for the undominated products that beat something. It has
// a non-empty answer set and uses negation, so the generic first-order
// evaluator runs; the paper's "Top" query has no answer on this
// tournament.
const prefQuery = "Q(X) := (exists Y: Pref(X, Y)) & !(exists Z: Pref(Z, X)).\n"

// PrefConfig is the preference tournament of pref-exact: the structure is
// fixed by workload.Preferences at a fixed seed, and the benchmark seed
// only renames the products and reorders the facts. Repair counts and
// chain shapes are therefore equal across seeds, and the answers map back
// to one golden text.
var PrefConfig = workload.PreferenceConfig{Products: 20, Prefs: 28, ConflictRate: 0.4, Seed: 42}

// PrefReduced is the small tournament the tree engine cross-checks at
// set-up.
var PrefReduced = workload.PreferenceConfig{Products: 6, Prefs: 8, ConflictRate: 0.4, Seed: 42}

// PrefInstance is a renamed tournament.
type PrefInstance struct {
	DB string
	// Canon maps each renamed product back to its workload.Preferences
	// name.
	Canon map[string]string
	// Facts and Conflicts are the expected fact count and number of
	// symmetric pairs.
	Facts, Conflicts int
}

// GenPref renders cfg's tournament with products renamed and facts
// shuffled by seed.
func GenPref(cfg workload.PreferenceConfig, seed int64) *PrefInstance {
	d, _ := workload.Preferences(cfg)
	rng := rand.New(rand.NewSource(seed))
	inst := &PrefInstance{Canon: map[string]string{}}
	rename := map[string]string{}
	for i, j := range rng.Perm(cfg.Products) {
		canon := fmt.Sprintf("p%d", i)
		name := fmt.Sprintf("q%02d_%d", j, rng.Intn(1000))
		rename[canon], inst.Canon[name] = name, canon
	}
	facts := d.Facts()
	lines := make([]string, len(facts))
	for i, f := range facts {
		a, b := f.ArgNames()[0], f.ArgNames()[1]
		lines[i] = fmt.Sprintf("Pref(%s, %s).\n", rename[a], rename[b])
		if d.Contains(relation.NewFact("Pref", b, a)) && a < b {
			inst.Conflicts++
		}
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	inst.DB = strings.Join(lines, "")
	inst.Facts = len(facts)
	return inst
}

// CanonAnswers maps an answer block back to canonical product names and
// sorts its lines, so that every seed's answers compare to one golden
// text.
func (p *PrefInstance) CanonAnswers(answers string) string {
	lines := strings.Split(strings.TrimRight(answers, "\n"), "\n")
	for i, l := range lines {
		for name, canon := range p.Canon {
			l = strings.ReplaceAll(l, name, canon)
		}
		lines[i] = l
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// serveConstraint is the Islands denial constraint: no two-edge path.
const serveConstraint = "E(X, Y), E(Y, Z) -> false.\n"

// serveCPQuery is the atomic query the CP reads ask.
const serveCPQuery = "Q(X, Y) := E(X, Y)."

// ServeConfig sizes serve-mix: islands of four E facts, 90% of them one
// shape, as workload.ServeMix builds them.
func ServeConfig(islands, ops int, seed int64) workload.ServeMixConfig {
	return workload.ServeMixConfig{
		Islands:        islands,
		FactsPerIsland: 4,
		IsoRatio:       0.9,
		Ops:            ops,
		IngestRatio:    0.1,
		Seed:           seed,
	}
}

// GenServe returns the database text and the operation stream.
func GenServe(cfg workload.ServeMixConfig) (string, *relation.Database, []workload.ServeOp) {
	d, _, ops := workload.ServeMix(cfg)
	return parse.RenderDatabase(d), d, ops
}
