package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/prob"
	"repro/internal/repair"
)

// Sizes of the batch workloads, settled so that one job takes about a
// second on a 2-CPU machine; README.md records the measurements behind
// them.
var (
	keysFactoredSize = KeysConfig{Orders: 25000, Customers: 5000, ViolationRate: 0.1, MinGroup: 2, MaxGroup: 4}
	keysSATSize      = KeysConfig{Orders: 2500, Customers: 500, ViolationRate: 0.1, MinGroup: 2, MaxGroup: 4}
)

// maxStates is ocqa's default exact-mode state budget.
const maxStates = 1_000_000

// prefGolden is the SHA-256 of pref-exact's answer block, mapped back to
// canonical product names and sorted; it is the same for every seed.
const prefGolden = "c11d435e8b091879eeb65d9e746fe75ddf37e1f73ff83b73804e454f0b0ae212"

// headerInt extracts the integer captured by re from ocqa's output.
func headerInt(stdout string, re *regexp.Regexp) (int, error) {
	m := re.FindStringSubmatch(stdout)
	if m == nil {
		return 0, fmt.Errorf("output lacks %q", re.String())
	}
	return strconv.Atoi(m[1])
}

// expectInts checks each header count against its expected value.
func expectInts(stdout string, want map[*regexp.Regexp]int) error {
	for re, w := range want {
		got, err := headerInt(stdout, re)
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("%q reads %d, want %d", re.String(), got, w)
		}
	}
	return nil
}

var (
	reFacts      = regexp.MustCompile(`database: (\d+) facts`)
	reComponents = regexp.MustCompile(`factored chain: (\d+) conflict components`)
	reUntouched  = regexp.MustCompile(`conflict components, (\d+) untouched facts`)
	reSATGroups  = regexp.MustCompile(`sat encoding: (\d+) violating groups`)
	reSATFacts   = regexp.MustCompile(`violating groups, (\d+) conflicted facts`)
	reRepairs    = regexp.MustCompile(`operational repairs: (\d+)`)
)

// answerLines parses "  (a, b) : p" lines into tuple → probability text.
func answerLines(block string) (map[string]string, error) {
	out := map[string]string{}
	for _, l := range strings.Split(strings.TrimRight(block, "\n"), "\n")[1:] {
		tup, p, ok := strings.Cut(strings.TrimSpace(l), " : ")
		if !ok || !strings.HasPrefix(tup, "(") {
			return nil, fmt.Errorf("malformed answer line %q", l)
		}
		if _, dup := out[tup]; dup {
			return nil, fmt.Errorf("duplicate answer %s", tup)
		}
		out[tup] = p
	}
	return out, nil
}

// sameAnswers compares parsed answers with the expected ones.
func sameAnswers(got, want map[string]string) error {
	for t, p := range want {
		g, ok := got[t]
		if !ok {
			return fmt.Errorf("answer %s missing", t)
		}
		if g != p {
			return fmt.Errorf("answer %s reads %s, want %s", t, g, p)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	return nil
}

// groupProbability is the reference tree engine's probability that one
// row of an isolated key group of size g survives, under the uniform
// generator.
func groupProbability(g int) (*big.Rat, error) {
	var b strings.Builder
	for j := 0; j < g; j++ {
		fmt.Fprintf(&b, "cust(k, v%d).\n", j)
	}
	d, err := parse.Database(b.String())
	if err != nil {
		return nil, err
	}
	sigma, err := parse.Constraints(keysConstraints)
	if err != nil {
		return nil, err
	}
	q, err := parse.Query(keysReportQuery)
	if err != nil {
		return nil, err
	}
	inst, err := repair.NewInstance(d, sigma)
	if err != nil {
		return nil, err
	}
	sem, err := core.ComputeTree(inst, generators.Uniform{}, markov.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	return sem.CP(q, []string{"k", "v0"}), nil
}

// keysFiles is the input of both key workloads.
func keysFiles(inst *KeysInstance, query string) map[string]string {
	return map[string]string{"db": inst.DB, "constraints": keysConstraints, "query": query}
}

// keysFactored is the customer report through the factored engine. Its
// oracle: every row of a violated customer key carries the tree engine's
// probability for an isolated group of that size, every clean row reads
// exactly 1, and the header counts match the generator's.
func keysFactored(seed int64) (*Batch, error) { return keysFactoredOf(keysFactoredSize, seed) }

func keysFactoredOf(cfg KeysConfig, seed int64) (*Batch, error) {
	inst := GenKeys(cfg, seed)
	probs := map[int]*big.Rat{1: prob.One()}
	for g := cfg.MinGroup; g <= cfg.MaxGroup; g++ {
		p, err := groupProbability(g)
		if err != nil {
			return nil, err
		}
		probs[g] = p
	}
	want := map[string]string{}
	for c, names := range inst.CustNames {
		p := probs[len(names)]
		for _, n := range names {
			want[fmt.Sprintf("(%s, %s)", custKey(c), n)] = prob.Format(p)
		}
	}
	return &Batch{
		Files: keysFiles(inst, keysReportQuery),
		Args:  []string{"-mode", "factored", "-gen", "uniform"},
		Check: func(stdout string) error {
			return checkKeysFactored(stdout, inst, want)
		},
		Compose: composeFactored,
		Counts: map[string]float64{
			"parse.facts":           float64(inst.Facts),
			"constraint.violations": float64(inst.Violations),
			"abc.islands":           float64(inst.Groups),
			"core.explore.islands":  float64(inst.Groups),
			"core.query.answers":    float64(len(want)),
		},
	}, nil
}

func checkKeysFactored(stdout string, inst *KeysInstance, want map[string]string) error {
	if err := expectInts(stdout, map[*regexp.Regexp]int{
		reFacts:      inst.Facts,
		reComponents: inst.Groups,
		reUntouched:  inst.Facts - inst.ConflictFacts(),
	}); err != nil {
		return err
	}
	got, err := answerLines(answerBlock(stdout))
	if err != nil {
		return err
	}
	return sameAnswers(got, want)
}

// keysSAT is the order/customer join through the SAT engine. Its oracle:
// the certain set is exactly the generator-known pairs whose order key and
// customer key are both clean.
func keysSAT(seed int64) (*Batch, error) { return keysSATOf(keysSATSize, seed) }

func keysSATOf(cfg KeysConfig, seed int64) (*Batch, error) {
	inst := GenKeys(cfg, seed)
	want := map[string]string{}
	for o, custs := range inst.OrderCust {
		if len(custs) == 1 && len(inst.CustNames[custs[0]]) == 1 {
			want[fmt.Sprintf("(%s, %s)", orderKey(o), inst.CustNames[custs[0]][0])] = "1"
		}
	}
	return &Batch{
		Files: keysFiles(inst, keysJoinQuery),
		Args:  []string{"-mode", "sat"},
		Check: func(stdout string) error {
			return checkKeysSAT(stdout, inst, want)
		},
		Compose: composeSAT,
		Counts: map[string]float64{
			"parse.facts": float64(inst.Facts),
			"sat.vars":    float64(inst.ConflictFacts()),
		},
	}, nil
}

func checkKeysSAT(stdout string, inst *KeysInstance, want map[string]string) error {
	if err := expectInts(stdout, map[*regexp.Regexp]int{
		reFacts:     inst.Facts,
		reSATGroups: inst.Groups,
		reSATFacts:  inst.ConflictFacts(),
	}); err != nil {
		return err
	}
	got, err := answerLines(answerBlock(stdout))
	if err != nil {
		return err
	}
	return sameAnswers(got, want)
}

// ConflictFacts counts the rows of violated keys.
func (k *KeysInstance) ConflictFacts() int {
	n := 0
	for _, names := range k.CustNames {
		if len(names) > 1 {
			n += len(names)
		}
	}
	for _, custs := range k.OrderCust {
		if len(custs) > 1 {
			n += len(custs)
		}
	}
	return n
}

// prefFiles is the input of a tournament.
func prefFiles(inst *PrefInstance) map[string]string {
	return map[string]string{"db": inst.DB, "constraints": prefConstraint, "query": prefQuery}
}

// prefArgs are the ocqa flags of pref-exact.
var prefArgs = []string{"-mode", "exact", "-gen", "preference"}

// prefExact is the paper's Section 3 tournament through the DAG engine.
// Its oracle: the answer block, mapped back to canonical names, has the
// golden digest, the repair count is 2^(symmetric pairs), and at set-up
// the CLI's answers on a reduced tournament equal the reference tree
// engine's.
func prefExact(seed int64) (*Batch, error) {
	inst := GenPref(PrefConfig, seed)
	return &Batch{
		Files: prefFiles(inst),
		Args:  prefArgs,
		Check: func(stdout string) error {
			return checkPref(stdout, inst, prefGolden)
		},
		SetupCheck: func(env *Env) error { return prefTreeCheck(env, seed) },
		Compose:    composeExact,
		Counts: map[string]float64{
			"parse.facts":           float64(inst.Facts),
			"constraint.violations": float64(2 * inst.Conflicts),
			"core.exact.repairs":    float64(int(1) << inst.Conflicts),
		},
	}, nil
}

func checkPref(stdout string, inst *PrefInstance, golden string) error {
	if err := expectInts(stdout, map[*regexp.Regexp]int{
		reFacts:   inst.Facts,
		reRepairs: 1 << inst.Conflicts,
	}); err != nil {
		return err
	}
	if d := digest(inst.CanonAnswers(answerBlock(stdout))); d != golden {
		return fmt.Errorf("answer digest %s, want %s", d, golden)
	}
	return nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// prefTreeCheck runs ocqa on the reduced tournament and compares its
// answer block with the tree engine's.
func prefTreeCheck(env *Env, seed int64) error {
	inst := GenPref(PrefReduced, seed)
	paths, err := writeInputs(env.Work, map[string]string{
		"reduced.db": inst.DB, "reduced.rules": prefConstraint, "reduced.q": prefQuery,
	})
	if err != nil {
		return err
	}
	j, err := runOCQA(env, map[string]string{
		"db": paths["reduced.db"], "constraints": paths["reduced.rules"], "query": paths["reduced.q"],
	}, prefArgs)
	if err != nil {
		return err
	}
	want, err := treeAnswers(inst)
	if err != nil {
		return err
	}
	if got := answerBlock(j.stdout); got != want {
		return fmt.Errorf("reduced tournament: ocqa answers\n%s\ntree engine answers\n%s", got, want)
	}
	return nil
}

// treeAnswers is the tree engine's answer block for a tournament.
func treeAnswers(inst *PrefInstance) (string, error) {
	d, err := parse.Database(inst.DB)
	if err != nil {
		return "", err
	}
	sigma, err := parse.Constraints(prefConstraint)
	if err != nil {
		return "", err
	}
	q, err := parse.Query(prefQuery)
	if err != nil {
		return "", err
	}
	ri, err := repair.NewInstance(d, sigma)
	if err != nil {
		return "", err
	}
	sem, err := core.ComputeTree(ri, generators.Preference{}, markov.ExploreOptions{MaxStates: maxStates})
	if err != nil {
		return "", err
	}
	return sem.OCA(q).String(), nil
}
